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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateLineError,
    NoSolutionError,
    NoStableRegionError,
    UnboundedStableRangeError,
    UnitError,
    UnstableConfigurationError,
    WrongSignSlopeError,
)

FLAT = math.inf

ORIGIN = "origin"    # stability line through the origin, positive slope
TANGENT = "tangent"  # stability line tangent to g1*g2 = 1, negative slope
BRANCHES = (ORIGIN, TANGENT)

# Candidate interval boundaries closer than this (meters) are one root.
_MERGE_TOL = 1e-9


def _inv(x: float) -> float:
    """1/x with the flat (infinite) marker mapping to exactly 0."""
    return 0.0 if math.isinf(x) else 1.0 / x


def _check_element(name: str, value: float) -> None:
    if math.isnan(value) or value == 0.0 or value == -math.inf:
        raise UnitError(name, f"must be finite nonzero or FLAT (+inf), got {value}")


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
        if not (math.isfinite(self.l) and self.l > 0):
            raise UnitError("l", f"must be finite and > 0, got {self.l}")
        _check_element("f", self.f)
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


def effective_length(geom: CavityGeometry, d: float) -> float:
    """Effective cavity length ``l + d - l*d/f`` (lens term zero when f is flat)."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return geom.l + d - geom.l * d * _inv(geom.f)


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
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    L = effective_length(geom, d)
    g1 = 1.0 - d * _inv(geom.f) - L * _inv(geom.r1)
    g2 = 1.0 - geom.l * _inv(geom.f) - L * _inv(geom.r2)
    u1 = geom.l * (1.0 - geom.l * _inv(geom.r1))
    u2 = d * (1.0 - d * _inv(geom.r2))
    x = _inv(geom.f) - 1.0 / geom.l - 1.0 / d if d > 0 else math.nan
    return CavityDerived(L=L, g1=g1, g2=g2, u1=u1, u2=u2, x=x)


def is_stable(geom: CavityGeometry, d: float) -> bool:
    """True iff 0 < g1*g2 < 1 with strict inequalities."""
    der = g_parameters(geom, d)
    gg = der.g1 * der.g2
    return 0.0 < gg < 1.0


def _affine_coefficients(geom: CavityGeometry) -> tuple[float, float, float, float]:
    """(a1, b1, a2, b2) such that g1 = a1 + b1*d and g2 = a2 + b2*d."""
    phi = _inv(geom.f)
    c0 = 1.0 - geom.l * phi
    a1 = 1.0 - geom.l * _inv(geom.r1)
    b1 = -(phi + c0 * _inv(geom.r1))
    a2 = c0 - geom.l * _inv(geom.r2)
    b2 = -c0 * _inv(geom.r2)
    return a1, b1, a2, b2


def _g1_independent_of_d(l: float, f: float, r1: float) -> bool:
    """True when the d-coefficient of g1 vanishes (degenerate line family)."""
    if math.isinf(f) and math.isinf(r1):
        return True
    if math.isfinite(f) and math.isfinite(r1) and l - r1 - f == 0.0:
        return True
    phi = _inv(f)
    return phi + (1.0 - l * phi) * _inv(r1) == 0.0


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
    a1, b1, a2, b2 = _affine_coefficients(geom)
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
    a1, b1, a2, b2 = _affine_coefficients(geom)
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


def stable_distance_intervals(geom: CavityGeometry, d_limit: float) -> DistanceIntervals:
    """All maximal open subintervals of (0, d_limit) where the cavity is stable.

    Since g1 and g2 are affine in d, the boundaries come from the closed-form
    roots of ``g1*g2 = 0`` (the two linear factors) and ``g1*g2 = 1`` (a
    quadratic); isolated touch points split intervals.  Returns an empty set
    when the cavity is nowhere stable.
    """
    if not (d_limit > 0 and math.isfinite(d_limit)):
        raise ValueError(f"d_limit must be positive and finite, got {d_limit}")
    points = [0.0] + [c for c in _boundary_candidates(geom) if c < d_limit] + [d_limit]
    out = []
    for lo, hi in zip(points, points[1:]):
        if hi - lo > _MERGE_TOL and is_stable(geom, 0.5 * (lo + hi)):
            out.append((lo, hi))
    return DistanceIntervals(intervals=tuple(out))


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
    cands = _boundary_candidates(geom)
    points = [0.0] + cands
    segments = []
    for lo, hi in zip(points, points[1:]):
        if hi - lo > _MERGE_TOL and is_stable(geom, 0.5 * (lo + hi)):
            segments.append((lo, hi))
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
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    _check_element("f", f)
    _check_element("r1", r1)
    if not (math.isfinite(l) and l > 0):
        raise ValueError(f"l must be finite and > 0, got {l}")
    phi = _inv(f)
    c0 = 1.0 - l * phi
    if c0 == 0.0:
        raise WrongSignSlopeError(
            "l equals f: the stability line is horizontal on both branches"
        )
    if _g1_independent_of_d(l, f, r1):
        raise NoSolutionError(
            "g1 is independent of d for this (l, f, r1); no connecting line exists"
        )
    den = phi + c0 * _inv(r1)
    rho2 = c0 * den
    if branch == TANGENT:
        rho2 = -rho2
    return 1.0 / rho2


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
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    der = g_parameters(geom, d)
    gg = der.g1 * der.g2
    if not 0.0 < gg < 1.0:
        raise UnstableConfigurationError(
            f"g1*g2 = {gg}: mode radii require 0 < g1*g2 < 1"
        )
    u1, u2 = der.u1, der.u2
    # 2*x*u1*u2 + u1 + u2 with x = 1/f - 1/l - 1/d multiplied through, so the
    # d = 0 and the near-origin cases stay finite.
    planar = (
        2.0 * u1 * u2 * _inv(geom.f)
        - 2.0 * u2 * (1.0 - geom.l * _inv(geom.r1))
        - 2.0 * u1 * (1.0 - d * _inv(geom.r2))
        + u1
        + u2
    )
    lam_pi = wavelength / math.pi
    w_gain = math.sqrt(lam_pi * abs(planar) / math.sqrt((1.0 - gg) * gg))
    w_m1 = math.sqrt(lam_pi * abs(der.L) * math.sqrt(der.g2 / (der.g1 * (1.0 - gg))))
    w_m2 = math.sqrt(lam_pi * abs(der.L) * math.sqrt(der.g1 / (der.g2 * (1.0 - gg))))
    return BeamRadii(w_gain=w_gain, w_m1=w_m1, w_m2=w_m2)


def round_trip_matrix(geom: CavityGeometry, d: float) -> np.ndarray:
    """Paraxial round-trip ray matrix starting at M1.

    Element order: propagate l, thin lens f, propagate d, mirror r2,
    propagate d, thin lens f, propagate l, mirror r1.  The product is
    unimodular and ``|trace/2| < 1`` away from boundaries exactly where
    ``is_stable`` holds.
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")

    def prop(t):
        return np.array([[1.0, t], [0.0, 1.0]])

    def lens(focal):
        return np.array([[1.0, 0.0], [-_inv(focal), 1.0]])

    def mirror(r):
        return np.array([[1.0, 0.0], [-2.0 * _inv(r), 1.0]])

    return (
        mirror(geom.r1)
        @ prop(geom.l)
        @ lens(geom.f)
        @ prop(d)
        @ mirror(geom.r2)
        @ prop(d)
        @ lens(geom.f)
        @ prop(geom.l)
    )
