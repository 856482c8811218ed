"""Open-resonator stability and Gaussian mode geometry.

The transmitter/receiver pair is modeled as a two-mirror cavity with a thin
thermal lens standing in for the pumped rod: mirror M1, a spacing ``l`` to
the lens of focal length ``f``, a transmission distance ``d`` to mirror M2.
Mirror curvature radii are used exactly as signed on the data sheets
(``r1 = -1.0`` means the value -1000 mm, no concave/convex re-interpretation),
and flat elements are written as ``math.inf`` so that ``1/flat`` is exactly
zero.

The cavity supports a confined Gaussian mode iff ``0 < g1*g2 < 1`` (strict);
both g-parameters are affine in ``d``, so the set of stable distances is
bounded by the real roots of two closed-form polynomials, no scanning needed.

Each closed form is written once, as a private body that runs on floats and
numpy columns alike: it uses only + - * / and abs, takes sqrt as an argument,
and leaves validation to its callers.  The scalar kernels here wrap the bodies
with exceptions; the column kernels of :mod:`resbeam.columns`, for drivers
that evaluate whole grids, wrap them with masks and status codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegenerateLineError,
    EmptyResultError,
    NoSolutionError,
    NoStableRegionError,
    ResbeamError,
    UnboundedStableRangeError,
    UnstableConfigurationError,
    WrongSignSlopeError,
    require,
)

FLAT = math.inf

ORIGIN = "origin"    # stability line through the origin, positive slope
TANGENT = "tangent"  # stability line tangent to g1*g2 = 1, negative slope
BRANCHES = (ORIGIN, TANGENT)

# Candidate interval boundaries closer than this (meters) are one root.
_MERGE_TOL = 1e-9
# Candidate R1 edges closer than this (meters) are one root.
_R1_MERGE_TOL = 1e-12


def _check_element(name: str, value: float) -> None:
    if math.isnan(value) or value == 0.0 or value == -math.inf:
        require(name, value, False, "finite nonzero or FLAT (+inf)")


def _check_l_f(l: float, f: float) -> None:
    """The transmitter size and focal length checks of CavityGeometry."""
    if not (math.isfinite(l) and l > 0):
        require("l", l, False, "finite and > 0")
    _check_element("f", f)


@dataclass(frozen=True)
class CavityGeometry:
    """Physical resonator parameters.

    Attributes
    ----------
    l : float
        Gain-medium-to-M1 spacing in meters (the transmitter size), > 0.
    f : float
        Thermal-lens focal length in meters, or FLAT for no lensing.
    r1, r2 : float
        Signed curvature radii of M1 / M2 in meters, or FLAT.
    """

    l: float
    f: float
    r1: float
    r2: float

    def __post_init__(self):
        _check_l_f(self.l, self.f)
        _check_element("r1", self.r1)
        _check_element("r2", self.r2)


@dataclass(frozen=True)
class CavityDerived:
    """Per-distance derived quantities feeding stability and radius formulas."""

    L: float   # effective cavity length, meters
    g1: float
    g2: float
    u1: float  # meters
    u2: float  # meters
    x: float   # inverse meters; NaN when undefined (d == 0)

    @property
    def x_defined(self) -> bool:
        return not math.isnan(self.x)


@dataclass(frozen=True)
class StabilityLine:
    """The line traced by (g1(d), g2(d)) as the distance d varies."""

    slope: float
    intercept: float

    def g2_at(self, g1: float) -> float:
        return self.slope * g1 + self.intercept


@dataclass(frozen=True)
class DistanceIntervals:
    """Ordered disjoint open intervals of stable transmission distance."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"empty interval ({lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("intervals overlap or are out of order")
            prev_hi = hi

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, d: float) -> bool:
        return any(lo < d < hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class BeamRadii:
    """TEM00 mode radii at the gain medium, M1 and M2 (meters)."""

    w_gain: float
    w_m1: float
    w_m2: float


class MaxDistance(NamedTuple):
    d_max: float
    contiguous: bool


def _g_terms(l, f, r1, r2, d):
    """(L, g1, g2): L = l + d - l*d/f, g1 = 1 - d/f - L/r1, g2 = 1 - l/f - L/r2."""
    phi = 1.0 / f
    L = l + d - l * d * phi
    return L, 1.0 - d * phi - L * (1.0 / r1), 1.0 - l * phi - L * (1.0 / r2)


def _u_terms(l, r1, r2, d):
    """(u1, u2) = (l*(1 - l/r1), d*(1 - d/r2)), the radius intermediates."""
    return l * (1.0 - l * (1.0 / r1)), d * (1.0 - d * (1.0 / r2))


def _radii(l, f, r1, r2, d, g, lam_pi, sqrt):
    """(w_gain, w_m1, w_m2) from g = _g_terms(l, f, r1, r2, d); real where 0 < g1*g2 < 1."""
    L, g1, g2 = g
    gg = g1 * g2
    u1, u2 = _u_terms(l, r1, r2, d)
    # 2*x*u1*u2 + u1 + u2 with x = 1/f - 1/l - 1/d multiplied through, so the
    # d = 0 and the near-origin cases stay finite
    planar = (2.0 * u1 * u2 * (1.0 / f) - 2.0 * u2 * (1.0 - l * (1.0 / r1))
              - 2.0 * u1 * (1.0 - d * (1.0 / r2)) + u1 + u2)
    return (
        sqrt(lam_pi * abs(planar) / sqrt((1.0 - gg) * gg)),
        sqrt(lam_pi * abs(L) * sqrt(g2 / (g1 * (1.0 - gg)))),
        sqrt(lam_pi * abs(L) * sqrt(g1 / (g2 * (1.0 - gg)))),
    )


def _connecting(l, f, r1, branch):
    """(c0, phi + c0/r1, 1/r2) with phi = 1/f, c0 = 1 - l*phi: 1/r2 = +-c0*(phi + c0/r1)."""
    phi = 1.0 / f
    c0 = 1.0 - l * phi
    den = phi + c0 * (1.0 / r1)
    rho2 = c0 * den
    return c0, den, -rho2 if branch == TANGENT else rho2


def _g_at(geom: CavityGeometry, d: float):
    """_g_terms of the geometry at one finite distance d >= 0."""
    if not 0.0 <= d < math.inf:
        require("d", d, False, "finite and >= 0")
    return _g_terms(geom.l, geom.f, geom.r1, geom.r2, d)


def effective_length(geom: CavityGeometry, d: float) -> float:
    """Effective cavity length ``l + d - l*d/f`` (lens term zero when f is flat)."""
    return _g_at(geom, d)[0]


def g_parameters(geom: CavityGeometry, d: float) -> CavityDerived:
    """Evaluate the stability parameters and radius intermediates at distance d.

    Parameters
    ----------
    geom : CavityGeometry
    d : float
        Transmission distance in meters, >= 0.

    Returns
    -------
    CavityDerived
        With ``g1 = 1 - d/f - L/r1`` and ``g2 = 1 - l/f - L/r2``.  The
        intermediate ``x = 1/f - 1/l - 1/d`` is NaN at d = 0 (``x_defined``
        flags this); g1 and g2 remain valid there.
    """
    L, g1, g2 = _g_at(geom, d)
    u1, u2 = _u_terms(geom.l, geom.r1, geom.r2, d)
    x = 1.0 / geom.f - 1.0 / geom.l - 1.0 / d if d > 0 else math.nan
    return CavityDerived(L=L, g1=g1, g2=g2, u1=u1, u2=u2, x=x)


def is_stable(geom: CavityGeometry, d: float) -> bool:
    """True iff 0 < g1*g2 < 1 with strict inequalities."""
    _, g1, g2 = _g_at(geom, d)
    return 0.0 < g1 * g2 < 1.0


def _affine(l, f, r1, r2):
    """(a1, b1, a2, b2) such that g1 = a1 + b1*d and g2 = a2 + b2*d.

    Takes floats or numpy columns of valid elements: 1.0/FLAT is exactly 0.0.
    """
    c0, den, _ = _connecting(l, f, r1, ORIGIN)
    a1 = 1.0 - l * (1.0 / r1)
    b1 = -den
    a2 = c0 - l * (1.0 / r2)
    b2 = -c0 * (1.0 / r2)
    return a1, b1, a2, b2


def _g1_independent_of_d(l: float, f: float, r1: float) -> bool:
    """True when the d-coefficient of g1 vanishes (degenerate line family)."""
    if math.isinf(f) and math.isinf(r1):
        return True
    if math.isfinite(f) and math.isfinite(r1) and l - r1 - f == 0.0:
        return True
    return _connecting(l, f, r1, ORIGIN)[1] == 0.0


def stability_line(geom: CavityGeometry) -> StabilityLine:
    """Eliminate d from (g1(d), g2(d)) and return the resulting line.

    Raises
    ------
    DegenerateLineError
        When g1 does not depend on d (``l - r1 - f = 0`` or all-flat optics):
        the family is a vertical line in the stability diagram and has no
        slope/intercept form.
    """
    if _g1_independent_of_d(geom.l, geom.f, geom.r1):
        raise DegenerateLineError(
            "g1 is independent of d (l - r1 - f = 0 or all-flat optics); "
            "the d-family has no g2(g1) form"
        )
    a1, b1, a2, b2 = _affine(geom.l, geom.f, geom.r1, geom.r2)
    slope = b2 / b1
    return StabilityLine(slope=slope, intercept=a2 - a1 * slope)


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c, stabilized against cancellation."""
    if a == 0.0:
        if b == 0.0:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    if disc == 0.0 or b == 0.0:
        s = math.sqrt(disc)
        return sorted({(-b - s) / (2.0 * a), (-b + s) / (2.0 * a)})
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return sorted({q / a, c / q})


def _boundary_candidates(geom: CavityGeometry) -> list[float]:
    """All d > 0 where g1*g2 crosses or touches 0 or 1, near-duplicates merged."""
    a1, b1, a2, b2 = _affine(geom.l, geom.f, geom.r1, geom.r2)
    cands = []
    if b1 != 0.0:
        cands.append(-a1 / b1)
    if b2 != 0.0:
        cands.append(-a2 / b2)
    cands += _quadratic_roots(b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0)
    cands = sorted(c for c in cands if c > 0.0 and math.isfinite(c))
    merged: list[float] = []
    for c in cands:
        if merged and c - merged[-1] <= _MERGE_TOL * max(1.0, c):
            continue
        merged.append(c)
    return merged


def _stable_segments(geom: CavityGeometry, points: list[float]) -> list[tuple[float, float]]:
    """The gaps between consecutive points, wider than _MERGE_TOL, with a stable midpoint."""
    return [(lo, hi) for lo, hi in zip(points, points[1:])
            if hi - lo > _MERGE_TOL and is_stable(geom, 0.5 * (lo + hi))]


def stable_distance_intervals(geom: CavityGeometry, d_limit: float) -> DistanceIntervals:
    """All maximal open subintervals of (0, d_limit) where the cavity is stable.

    Since g1 and g2 are affine in d, the boundaries come from the closed-form
    roots of ``g1*g2 = 0`` (the two linear factors) and ``g1*g2 = 1`` (a
    quadratic); isolated touch points split intervals.  Returns an empty set
    when the cavity is nowhere stable.
    """
    if not (d_limit > 0 and math.isfinite(d_limit)):
        require("d_limit", d_limit, False, "finite and > 0")
    points = [0.0] + [c for c in _boundary_candidates(geom) if c < d_limit] + [d_limit]
    return DistanceIntervals(intervals=tuple(_stable_segments(geom, points)))


def max_transmission_distance(geom: CavityGeometry) -> MaxDistance:
    """Supremum of the stable distance set plus a contiguity flag.

    The flag reports whether the set is contiguous from its infimum when
    isolated touch points (zero-width gaps) are ignored.

    Raises
    ------
    NoStableRegionError
        When no distance is stable.
    UnboundedStableRangeError
        When the cavity stays stable for arbitrarily large d.
    """
    points = [0.0] + _boundary_candidates(geom)
    segments = _stable_segments(geom, points)
    beyond = max(points) + 1.0
    if is_stable(geom, beyond):
        raise UnboundedStableRangeError(probe_limit=beyond)
    if not segments:
        raise NoStableRegionError("no transmission distance satisfies 0 < g1*g2 < 1")
    contiguous = all(
        nxt_lo - hi <= _MERGE_TOL
        for (_, hi), (nxt_lo, _) in zip(segments, segments[1:])
    )
    return MaxDistance(d_max=segments[-1][1], contiguous=contiguous)


def connecting_r2(l: float, f: float, r1: float, branch: str) -> float:
    """Receiver curvature that merges the two stability regions.

    Two line placements connect the regions: through the origin with positive
    slope (``branch="origin"``) or tangent to the hyperbola g1*g2 = 1 with
    negative slope (``branch="tangent"``).  Writing phi = 1/f, c0 = 1 - l*phi,
    both are closed-form:

        1/r2 = +c0*(phi + c0/r1)   (origin,  slope = +c0^2)
        1/r2 = -c0*(phi + c0/r1)   (tangent, slope = -c0^2, intercept = 2*c0)

    The tangency discriminant of the line-hyperbola intersection vanishes
    identically on the tangent branch, so no root search is required.

    Raises
    ------
    NoSolutionError
        When g1 does not depend on d (phi + c0/r1 = 0, e.g. l - r1 - f = 0),
        so no line placement exists.
    WrongSignSlopeError
        When l = f, which forces a zero slope on either branch.
    """
    if branch not in BRANCHES:
        require("branch", branch, False, f"one of {BRANCHES}")
    _check_l_f(l, f)
    _check_element("r1", r1)
    c0, _, rho2 = _connecting(l, f, r1, branch)
    if c0 == 0.0:
        raise WrongSignSlopeError(
            "l equals f: the stability line is horizontal on both branches"
        )
    if _g1_independent_of_d(l, f, r1):
        raise NoSolutionError(
            "g1 is independent of d for this (l, f, r1); no connecting line exists"
        )
    return 1.0 / rho2


def r1_range_for_distance(
    target_d: float, l: float, f: float, branch: str, search_interval: tuple[float, float]
) -> list[tuple[float, float]]:
    """Maximal R1 subintervals whose connected-branch design reaches target_d.

    On a connected branch 1/r2 = s*c0*(phi + c0*rho), with rho = 1/R1 and
    s = +1 (origin) or -1 (tangent), so at d = T = target_d both g-parameters
    are affine in rho; with L = l + T*c0,

        g1 = (1 - T*phi) - L*rho,   g2 = c0*(1 - s*L*phi) - s*L*c0^2*rho.

    An edge of {R1 : d_max(R1) >= T} is an R1 where T is a stability
    boundary, a rho-root of g1 = 0, g2 = 0 or g1*g2 = 1, or the singular
    R1 = l - f or 0 (no other: two d-boundaries never merge on a connected
    branch).  One scalar reach at each gap's midpoint classifies the gap, and
    reaching neighbours join, so an interval may hold a singular point.  The
    edges are exact to rounding.

    Raises EmptyResultError when no R1 in the interval qualifies.
    """
    if not math.isfinite(target_d):
        require("target_d", target_d, False, "finite")
    lo, hi = search_interval
    for key, bound in (("search_from", lo), ("search_to", hi)):
        if not math.isfinite(bound):
            require(key, bound, False, "finite")
    if not lo < hi:
        require("search_from", lo, False, f"< search_to = {hi!r}")
    _check_l_f(l, f)
    if branch not in BRANCHES:
        require("branch", branch, False, f"one of {BRANCHES}")

    def reaches(r1: float) -> bool:
        # unbounded reaches; a design error does not
        try:
            geom = CavityGeometry(l, f, r1, connecting_r2(l, f, r1, branch))
            return max_transmission_distance(geom).d_max >= target_d
        except UnboundedStableRangeError:
            return True
        except ResbeamError:
            return False

    phi = 1.0 / f
    c0 = 1.0 - l * phi
    s = 1.0 if branch == ORIGIN else -1.0
    L = l + target_d * c0
    p0, p1 = 1.0 - target_d * phi, -L                    # g1 = p0 + p1*rho
    q0, q1 = c0 * (1.0 - s * L * phi), -s * L * c0 * c0  # g2 = q0 + q1*rho
    rhos = (_quadratic_roots(0.0, p1, p0) + _quadratic_roots(0.0, q1, q0)
            + _quadratic_roots(p1 * q1, p0 * q1 + p1 * q0, p0 * q0 - 1.0))
    cands = sorted(c for c in [1.0 / rho for rho in rhos if rho] + [l - f, 0.0] if lo < c < hi)
    points = [lo]
    for c in cands:
        if c - points[-1] > _R1_MERGE_TOL and hi - c > _R1_MERGE_TOL:
            points.append(c)
    points.append(hi)
    out: list[tuple[float, float]] = []
    for a, b in zip(points, points[1:]):
        if not reaches(0.5 * (a + b)):
            continue
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    if not out:
        raise EmptyResultError(f"no R1 in [{lo}, {hi}] reaches {target_d} m on the {branch} branch")
    return out


def beam_radii(geom: CavityGeometry, d: float, wavelength: float) -> BeamRadii:
    """TEM00 mode radii at the gain medium, M1 and M2.

    Parameters
    ----------
    geom : CavityGeometry
    d : float
        Transmission distance in meters; the cavity must be strictly stable.
    wavelength : float
        Vacuum wavelength in meters.

    Returns
    -------
    BeamRadii
        ``w_gain`` uses the u1/u2/x intermediates; the term
        ``2*x*u1*u2 + u1 + u2`` is expanded so that d = 0 needs no 1/d.

    Raises
    ------
    UnstableConfigurationError
        When 0 < g1*g2 < 1 fails (the radicands are not positive).
    """
    require("wavelength", wavelength, 0.0 < wavelength < math.inf, "finite and > 0")
    g = _g_at(geom, d)
    gg = g[1] * g[2]
    if not 0.0 < gg < 1.0:
        raise UnstableConfigurationError(
            f"g1*g2 = {gg}: mode radii require 0 < g1*g2 < 1"
        )
    radii = _radii(geom.l, geom.f, geom.r1, geom.r2, d, g, wavelength / math.pi, math.sqrt)
    return BeamRadii(*radii)
