"""
The electrical-to-electrical power chain
========================================

Three stages: wall power pumps the rod (eta_stored), the stored power feeds
the intra-cavity beam and leaks through the output mirror (f(d) with a
lasing threshold), and the photovoltaic panel converts the beam back to
electricity (linear law with its own threshold).  Composing them gives the
end-to-end closed form and the input power needed for a target charge rate.
"""


from resbeam import (
    calibrate_aperture,
    end_to_end,
    reference_defaults,
    required_input_power,
    thresholds,
)

params = reference_defaults()

print("the power ladder at d = 1 m:")
print("   P_in [W]    stored    beam     out      eta_all")
for pin in (20.0, 40.0, 44.2, 50.0, 70.0, 100.0):
    state, eff = end_to_end(pin, 1.0, params)
    print(
        f"  {pin:8.1f}    {state.p_stored:6.2f}    {state.p_beam:5.2f}"
        f"    {state.p_out:5.2f}    {eff.eta_all:7.4f}"
    )

print("\nthresholds rise with distance (f(d) falls):")
print("   d [m]    P_stored_th    P_beam_th    P_in_th")
for d in (1.0, 2.0, 3.0, 5.0):
    th = thresholds(d, params)
    print(f"  {d:5.1f}    {th.p_stored:10.2f}    {th.p_beam:8.2f}    {th.p_in:8.2f}")

print("\ninput power for 1 W at the device:")
for d in (1.0, 2.0, 5.0):
    pin = required_input_power(1.0, d, params)
    print(f"  d = {d:3.1f} m  ->  P_in = {pin:7.2f} W")

# the effective aperture is the one free parameter; it is pinned once by
# the 61%-at-30 W operating point and reused everywhere else
a = calibrate_aperture(1.0, 30.0, 0.61, params)
print(f"\ncalibrated aperture radius: {a * 1e3:.4f} mm")
calibrated = params._replace(aperture_radius=a)
state, eff = end_to_end(100.0, 1.0, calibrated)
print(f"end-to-end efficiency at 100 W, 1 m: {eff.eta_all * 100:.2f} %")
