"""
Aperture diffraction loss
=========================

Every pass through the cavity clips the mode at the finite aperture (mirror
edges, rod bore).  The per-pass loss of mode (m, n) is a ratio of radial
integrals; for the fundamental mode it collapses to exp(-2 a^2/w^2), and,
via the equivalent confocal resonator, to a closed form in the transmission
distance.  That distance dependence is what starves the power chain at
long range.
"""

import math

from resbeam import fundamental_loss_vs_distance, mode_diffraction_loss

print("per-pass loss vs aperture/spot ratio (fundamental mode):")
print("   a/w    Gauss-Laguerre  exp(-2a^2/w^2)")
for ratio in (0.5, 1.0, 1.5, 2.0):
    q = mode_diffraction_loss(0, 0, ratio, 1.0)
    c = math.exp(-2.0 * ratio**2)
    print(f"  {ratio:4.1f}    {q:.6e}    {c:.6e}")

print("\nhigher-order modes are wider and lose more at the same aperture:")
print("  (m, n)    loss at a/w = 1.5")
for mode in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2)):
    loss = mode_diffraction_loss(*mode, 1.5, 1.0)
    print(f"  {mode}    {loss:.5f}")
print("which is why the link model tracks only the fundamental mode.")

print("\nfundamental loss vs distance (a = 0.786 mm, 1064 nm, l = 60 mm):")
A = 7.855301511370797e-4
for d in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
    delta = fundamental_loss_vs_distance(A, 1.064e-6, 0.06, d)
    print(f"  d = {d:4.1f} m    delta00 = {delta:.5f}")
