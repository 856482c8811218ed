"""Single-pass diffraction loss of cavity modes at a finite circular aperture.

A Laguerre-Gaussian mode of spot size ``w`` truncated by an aperture of
radius ``a`` loses the fraction of its power carried beyond r = a.  The
angular integral cancels, and with x = 2r^2/w^2 the radial tail is a
polynomial times exp(-x), which Gauss-Laguerre quadrature integrates
exactly.  The fundamental mode additionally has the distance-dependent
closed form ``exp(-2*pi*a^2 / (lambda*(l + d)))`` via the equivalent
confocal resonator, which the power chain consumes directly.
"""

from __future__ import annotations

import functools
import math

from .errors import require

# From m = n = 48, x^m * L_n^m(x)^2 overflows a double near the cut-off
# aperture sqrt(2n + m + 1) + 8 spot sizes; 40 keeps a margin.
MAX_MODE_ORDER = 40


def associated_laguerre(n: int, m: int, xi):
    """Associated Laguerre polynomial L_n^m(xi) by the three-term recurrence.

    Accepts a scalar or ndarray argument.  Stable for the modest orders that
    occur as transverse mode indices.
    """
    for key, order in (("n", n), ("m", m)):
        if not (order >= 0 and order % 1 == 0):  # NaN fails both
            require(key, order, False, "an integer >= 0")
    prev = xi * 0.0 + 1.0
    if n == 0:
        return prev
    cur = 1.0 + m - xi
    for k in range(1, int(n)):
        prev, cur = cur, ((2.0 * k + 1.0 + m - xi) * cur - (k + m) * prev) / (k + 1.0)
    return cur


@functools.lru_cache(maxsize=None)
def _gauss_laguerre(k: int):
    """Read-only k-point Gauss-Laguerre nodes and weights (exact to degree 2k-1).

    numpy loads here, at the first mode-loss evaluation, so that the scalar
    path of the package starts without it.
    """
    import numpy as np

    nodes, weights = np.polynomial.laguerre.laggauss(k)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def mode_diffraction_loss(m: int, n: int, aperture_radius: float, spot: float) -> float:
    """Fractional single-pass power loss of mode (m, n) at a circular aperture.

    Parameters
    ----------
    m, n : int
        Azimuthal and radial mode indices, each an integer in [0, MAX_MODE_ORDER] (40).
    aperture_radius : float
        Aperture radius in meters, finite and >= 0.
    spot : float
        Mode spot size w at the aperture, meters, finite and > 0.

    Returns
    -------
    float
        Loss fraction in [0, 1]: the power of the mode beyond the aperture
        over its total power.  With t = 2a^2/w^2 that is
        n!/(n+m)! * integral over [t, inf) of x^m [L_n^m(x)]^2 exp(-x) dx.
        Shifting x = y + t leaves a polynomial of degree m + 2n in y times
        exp(-y), which floor((m + 2n)/2) + 1 Gauss-Laguerre nodes integrate
        exactly.  Every term is nonnegative, so nothing cancels.
    """
    if not (0 <= m <= MAX_MODE_ORDER and 0 <= n <= MAX_MODE_ORDER and m % 1 == n % 1 == 0):
        key, order = ("n", n) if 0 <= m <= MAX_MODE_ORDER and m % 1 == 0 else ("m", m)
        require(key, order, False, f"an integer in [0, {MAX_MODE_ORDER}]")
    m, n = int(m), int(n)
    if not (spot > 0 and math.isfinite(spot)):
        require("spot", spot, False, "finite and > 0")
    if not (aperture_radius >= 0 and math.isfinite(aperture_radius)):
        require("aperture_radius", aperture_radius, False, "finite and >= 0")
    if aperture_radius == 0.0:
        return 1.0
    u = aperture_radius / spot
    # Past 8 spot sizes beyond the classical turning point of L_n^m the loss
    # is below 1e-70 for every supported order, and x^m below would overflow.
    if u >= math.sqrt(2.0 * n + m + 1.0) + 8.0:
        return 0.0

    t = 2.0 * u * u
    nodes, weights = _gauss_laguerre((m + 2 * n) // 2 + 1)
    x = nodes + t
    tail = math.exp(-t) * float(weights @ (x**m * associated_laguerre(n, m, x) ** 2))
    return min(1.0, max(0.0, tail * math.factorial(n) / math.factorial(n + m)))


def _tem00_exponent(aperture_radius: float, wavelength: float, l: float, d):
    """The TEM00 loss exponent -2*pi*a^2/(lambda*(l+d)); d is a float or a numpy column."""
    return -2.0 * math.pi * aperture_radius**2 / (wavelength * (l + d))


def fundamental_loss_vs_distance(
    aperture_radius: float, wavelength: float, l: float, d: float
) -> float:
    """Distance-dependent TEM00 diffraction loss exp(-2*pi*a^2/(lambda*(l+d)))."""
    if not 0.0 < wavelength < math.inf:
        require("wavelength", wavelength, False, "finite and > 0")
    if not 0.0 < l + d < math.inf:
        require("l + d", l + d, False, "finite and > 0")
    if not (aperture_radius >= 0 and math.isfinite(aperture_radius)):
        require("aperture_radius", aperture_radius, False, "finite and >= 0")
    return math.exp(_tem00_exponent(aperture_radius, wavelength, l, d))
