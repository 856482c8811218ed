"""Single-pass diffraction loss of cavity modes at a finite circular aperture.

A Laguerre-Gaussian mode of spot size ``w`` truncated by an aperture of
radius ``a`` loses the fraction of its power carried beyond r = a.  The
angular integral cancels, and with x = 2r^2/w^2 the radial tail is a
polynomial times exp(-x), which Gauss-Laguerre quadrature integrates
exactly; its nodes are found once per order by Newton's method, in plain
floats, so that the module runs without numpy.  Each checked mode order
(m, n) keeps one table, built on its first call: the nodes, the
recurrence's float coefficients, the two factorials and the cut-off.  The
fundamental mode additionally has the distance-dependent closed form
``exp(-2*pi*a^2 / (lambda*(l + d)))`` via the equivalent confocal resonator,
which the power chain consumes directly.
"""

from __future__ import annotations

import functools
import math

from .errors import require

# From m = n = 48, x^m * L_n^m(x)^2 overflows a double near the cut-off
# aperture sqrt(2n + m + 1) + 8 spot sizes; 40 keeps a margin.
MAX_MODE_ORDER = 40


def _steps(n: int, m):
    """(2k + 1 + m, k + m, k + 1) for k = 1..n-1: L_n^m's recurrence, lazily; None for n = 0."""
    if n == 0:
        return None
    return ((2.0 * k + 1.0 + m, k + m + 0.0, k + 1.0) for k in range(1, n))


def _laguerre(steps, m, x):
    """L_n^m(x) by the three-term recurrence, with steps = _steps(n, m) for a checked n and m."""
    prev = x * 0.0 + 1.0
    if steps is None:
        return prev
    cur = 1.0 + m - x
    for a, b, c in steps:
        prev, cur = cur, ((a - x) * cur - b * prev) / c
    return cur


def associated_laguerre(n: int, m: int, xi):
    """Associated Laguerre polynomial L_n^m(xi) by the three-term recurrence.

    Accepts a scalar or ndarray argument.  Stable for the modest orders that
    occur as transverse mode indices.  n is unbounded, so its steps are
    built lazily per call and never cached.  Raises UnitError naming xi where
    a number xi gives a value that is not finite (the recurrence overflowed,
    or met inf - inf); an array argument keeps its element-wise result.
    """
    for key, order in (("n", n), ("m", m)):
        if not (order >= 0 and order % 1 == 0):  # NaN fails both
            require(key, order, False, "an integer >= 0")
    value = _laguerre(_steps(int(n), m), m, xi)
    if isinstance(xi, (int, float)) and not math.isfinite(value):
        require("xi", xi, False, "such that L_n^m(xi) is finite")
    return value


@functools.lru_cache(maxsize=None)
def _gauss_laguerre(k: int) -> tuple[tuple[float, float], ...]:
    """The k (node, weight) pairs of Gauss-Laguerre quadrature (exact to degree 2k-1).

    Each node is a root of L_k, found by Newton's method on the three-term
    recurrence from the asymptotic guesses of ``gaulag`` (Press et al.,
    Numerical Recipes, section 4.6); its weight is x / (k L_{k-1}(x))^2.  Once
    a Newton step is below 1e-13 of the node, the quadratic convergence leaves
    the node exact to rounding.  Plain floats, so that no mode loss needs numpy.
    """
    high = tuple(_steps(k, 0))
    low = high[:-1] if k > 1 else None  # L_{k-1}: all of L_k's steps but the last
    pairs: list[tuple[float, float]] = []
    for i in range(k):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * k)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * k)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - pairs[-2][0])
        for _ in range(100):
            p1 = _laguerre(high, 0, z)
            step = z * p1 / (k * (p1 - _laguerre(low, 0, z)))  # x L_k' = k (L_k - L_{k-1})
            z -= step
            if abs(step) <= 1e-13 * z:
                break
        pairs.append((z, z / (k * _laguerre(low, 0, z)) ** 2))
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def _mode_table(m: int, n: int):
    """(nodes, steps, n!, (n+m)!, cut-off in spot sizes) of a mode order the loss has checked."""
    steps = _steps(n, m)
    return (_gauss_laguerre((m + 2 * n) // 2 + 1), None if steps is None else tuple(steps),
            float(math.factorial(n)), float(math.factorial(n + m)),
            math.sqrt(2.0 * n + m + 1.0) + 8.0)


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
        exactly.  Every term is nonnegative, so nothing cancels.  The nodes,
        the recurrence's coefficients, n!, (n+m)! and the cut-off come from
        one table per order (m, n), built on its first call.
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
    pairs, steps, n_fact, nm_fact, cut_off = _mode_table(m, n)
    u = aperture_radius / spot
    # Past 8 spot sizes beyond the classical turning point of L_n^m the loss
    # is below 1e-70 for every supported order, and x^m below would overflow.
    if u >= cut_off:
        return 0.0

    t = 2.0 * u * u
    tail = 0.0
    for node, weight in pairs:
        x = node + t
        tail += weight * (x**m * _laguerre(steps, m, x) ** 2)
    tail *= math.exp(-t)
    return min(1.0, max(0.0, tail * n_fact / nm_fact))


def _tem00_exponent(aperture_radius: float, wavelength: float, l: float, d):
    """The TEM00 loss exponent -2*pi*a^2/(lambda*(l+d)); d is a float or a numpy column.

    a*a, unlike a**2, overflows to inf for a huge aperture: the zero-loss limit.
    """
    return -2.0 * math.pi * (aperture_radius * aperture_radius) / (wavelength * (l + d))


def fundamental_loss_vs_distance(
    aperture_radius: float, wavelength: float, l: float, d: float
) -> float:
    """Distance-dependent TEM00 diffraction loss exp(-2*pi*a^2/(lambda*(l+d)))."""
    if not 0.0 < wavelength < math.inf:
        require("wavelength", wavelength, False, "finite and > 0")
    if not 0.0 < l + d < math.inf:
        require("l + d", l + d, False, "finite and > 0")
    if not wavelength * (l + d) > 0.0:  # the divisor of the exponent underflows
        require("wavelength", wavelength, False, "such that wavelength * (l + d) > 0")
    if not (aperture_radius >= 0 and math.isfinite(aperture_radius)):
        require("aperture_radius", aperture_radius, False, "finite and >= 0")
    exponent = _tem00_exponent(aperture_radius, wavelength, l, d)
    if exponent != exponent:  # inf/inf: a*a and the divisor both overflow
        require("wavelength", wavelength, False, "such that a*a or wavelength * (l + d) is finite")
    return math.exp(exponent)
