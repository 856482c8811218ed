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
numpy columns alike: it uses only + - * / & | and abs, takes sqrt as an
argument, and leaves validation to its callers.  _lens_mirror holds the
terms the lens and M1 set (c0 = 1 - l/f, g1's slope, whether g1 depends on
d, and d1), which the design (and so connecting_r2) and stability_line
read; the R1 search takes c0 from _affine and d1 from _d1, as _lens_mirror
does, without the mask.  The reach at a fixed r2 is such a body too: g1*g2
is a parabola in d, so _pieces works out its coefficients once, orders its
roots with the selection pick and reads the stable set's two pieces off the
sign of its leading coefficient, and both _supremum and
stable_distance_intervals read those pieces.  On a connected branch the
reach is one linear solve instead, _design, which the design rows run; its
only R1-dependent term is a monotone map of R1 on each side of R1 = l - f,
so the R1 search inverts that map at each threshold the target sets, with
no root search and no design tried.  The scalar kernels here wrap the bodies with exceptions; the
dataset rules of :mod:`resbeam.explorer` call them on whole grids with the
primitives of a kit (pick, sqrt) and flag a row rather than raise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    DegenerateLineError,
    EmptyResultError,
    NoSolutionError,
    NoStableRegionError,
    Record,
    UnstableConfigurationError,
    WrongSignSlopeError,
    require,
)

FLAT = math.inf

ORIGIN = "origin"    # stability line through the origin, positive slope
TANGENT = "tangent"  # stability line tangent to g1*g2 = 1, negative slope
BRANCHES = (ORIGIN, TANGENT)

# Stability boundaries closer than this (meters, or this share of a boundary
# past 1 m) are one touch point.
_MERGE_TOL = 1e-9
# A discriminant within this share of (a1*b2 - a2*b1)^2 is 0 to rounding (64 ULPs).
_TOUCH = 64 * 2.0 ** -52
_ELEMENT = "finite nonzero or FLAT (+inf)"


def _is_element(x):
    """Mask of the values CavityGeometry accepts, on floats or numpy columns."""
    return (x != 0.0) & (x != -math.inf) & (x == x)


def _check_element(name: str, value: float) -> None:
    require(name, value, _is_element(value), _ELEMENT)


def _check_l_f(l: float, f: float) -> None:
    """The transmitter size and focal length checks of CavityGeometry."""
    if not (math.isfinite(l) and l > 0):
        require("l", l, False, "finite and > 0")
    _check_element("f", f)


class CavityGeometry(Record):
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


class CavityDerived(NamedTuple):
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


class StabilityLine(NamedTuple):
    """The line traced by (g1(d), g2(d)) as the distance d varies."""

    slope: float
    intercept: float

    def g2_at(self, g1: float) -> float:
        return self.slope * g1 + self.intercept


class DistanceIntervals(Record):
    """Ordered disjoint open (lo, hi) intervals of stable distance; pairs of numbers, or UnitError."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        given = self.intervals
        try:  # the tuple checked, not the caller's sequence
            intervals = tuple(given)
        except TypeError:  # None or a number: one element, which is no pair
            intervals = (given,)
        prev_hi = -math.inf
        for pair in intervals:
            try:  # a number, a sequence of another length, or ends that do not compare
                lo, hi = pair
                ordered = prev_hi <= lo < hi
            except (TypeError, ValueError):
                require("intervals", pair, False, "a sequence of (lo, hi) pairs of numbers")
            if not ordered:
                require("intervals", (lo, hi), False, "nonempty, disjoint and in order")
            if type(pair) is not tuple:  # nor the caller's pairs; tuple() keeps a tuple
                intervals = tuple(map(tuple, intervals))
            prev_hi = hi
        if intervals is not given:  # a tuple of tuples is kept as it came
            object.__setattr__(self, "intervals", intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals


class BeamRadii(NamedTuple):
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


def _stable(g):
    """The stability test 0 < g1*g2 < 1, strict, of g = _g_terms(...): a bool or a mask."""
    gg = g[1] * g[2]
    return (0.0 < gg) & (gg < 1.0)


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


def _g_at(geom: CavityGeometry, d: float):
    """_g_terms of the geometry at one finite distance d >= 0."""
    if not 0.0 <= d < math.inf:
        require("d", d, False, "finite and >= 0")
    return _g_terms(geom.l, geom.f, geom.r1, geom.r2, d)


def effective_length(geom: CavityGeometry, d: float) -> float:
    """Effective cavity length ``l + d - l*d/f`` (lens term zero when f is flat), or UnitError."""
    L = _g_at(geom, d)[0]
    if not math.isfinite(L):
        require("d", d, False, "such that L is finite")
    return L


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
        flags this); g1 and g2 remain valid there.  UnitError names d where
        any other field is not finite, as x at d = 1e-320, where 1/d
        overflows, or u2 = d*(1 - d/r2) at d = 1e300.
    """
    L, g1, g2 = _g_at(geom, d)
    u1, u2 = _u_terms(geom.l, geom.r1, geom.r2, d)
    x = 1.0 / geom.f - 1.0 / geom.l - 1.0 / d if d > 0 else math.nan
    if not all(map(math.isfinite, (L, g1, g2, u1, u2, x if d > 0 else 0.0))):
        require("d", d, False, "such that L, g1, g2, u1, u2 and x are finite")
    return CavityDerived(L, g1, g2, u1, u2, x)


def is_stable(geom: CavityGeometry, d: float) -> bool:
    """True iff 0 < g1*g2 < 1 with strict inequalities."""
    return _stable(_g_at(geom, d))


def _affine(l, f, r1, r2):
    """(a1, b1, a2, b2) such that g1 = a1 + b1*d and g2 = a2 + b2*d.

    Takes floats or numpy columns of valid elements: 1.0/FLAT is exactly 0.0.
    """
    phi = 1.0 / f
    c0 = 1.0 - l * phi
    ir1 = 1.0 / r1
    return 1.0 - l * ir1, -(phi + c0 * ir1), c0 - l * (1.0 / r2), -c0 * (1.0 / r2)


def _d1(l, f, pick):
    """d1 = -l/c0 = l*f/(l - f) (-l for a flat f), where a connected design's u = c0*g1 is 1."""
    return l * pick(f == FLAT, -1.0, f / ((l - f) + (l == f)))


def _lens_mirror(l, f, r1, pick):
    """(c0, den, varies, d1): the terms the lens and M1 set, on floats or numpy columns.

    With M2 flat, _affine gives g2 = c0 = 1 - l/f and g1 = a1 - den*d, den =
    1/f + c0/r1 = (r1 + f - l)/(f*r1), with 1/r1 kept off zero so that no
    float operation raises.  varies: g1 depends on d; l - r1 - f is -inf for
    a flat f or r1, and den is exactly 0.0 for an all-flat f and r1, so the
    one test covers every form.  A connected design has 1/r2 = +-c0*den, and
    its u = c0*g1 is 0 at d0 = f*(r1 - l)/(r1 + f - l) (r1 - l for a flat f,
    f for a flat r1) and 1 at d1 of _d1.
    den keeps the form phi + c0/r1, which cancels near r1 = l - f: the pinned
    dataset digests and the benchmark's R2_m oracle hold 1/r2 to its bits.
    """
    _, b1, c0, _ = _affine(l, f, r1 + (r1 == 0.0), FLAT)
    den = -b1
    return c0, den, (l - r1 - f != 0.0) & (den != 0.0), _d1(l, f, pick)


def stability_line(geom: CavityGeometry) -> StabilityLine:
    """Eliminate d from (g1(d), g2(d)) and return the resulting line.

    Raises
    ------
    DegenerateLineError
        When g1 does not depend on d (``l - r1 - f = 0`` or all-flat optics):
        the family is a vertical line in the stability diagram and has no
        slope/intercept form.  Also where the slope or intercept is not
        finite, as where b2/b1 overflows: the line has no finite form.
    """
    if not _lens_mirror(geom.l, geom.f, geom.r1, _pick)[2]:
        raise DegenerateLineError(
            "g1 is independent of d (l - r1 - f = 0 or all-flat optics); "
            "the d-family has no g2(g1) form"
        )
    a1, b1, a2, b2 = _affine(geom.l, geom.f, geom.r1, geom.r2)
    slope = b2 / b1
    intercept = a2 - a1 * slope
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise DegenerateLineError(
            f"slope {slope!r}, intercept {intercept!r}: the d-family has no finite g2(g1) form"
        )
    return StabilityLine(slope, intercept)


def _pick(mask, a, b):
    """a where mask holds, else b: the selection of the row kit (numpy.where on columns)."""
    return a if mask else b


def _pieces(a1, b1, a2, b2, pick, sqrt):
    """(lo1, hi1, lo2, hi2, touch): the stable set of g1 = a1 + b1*d, g2 = a2 + b2*d in two pieces.

    g1*g2 is a parabola in d with leading coefficient qa = b1*b2, so with the
    0-roots ra <= rb of g1 and g2 and the 1-roots s1 <= s2 of g1*g2 = 1
    (ordered by pick, +inf where missing) the pieces are open and need no
    test point: (s1, ra) and (rb, s2) where qa > 0; (ra, s1) and (s2, rb), or
    (ra, rb) alone without real 1-roots, where qa < 0; and where qa = 0, so
    that rb and s2 are missing, the one piece between ra and s1, or none
    where g1*g2 is constant.  A piece is empty where hi <= lo, and
    hi1 <= lo2; neither is clipped to d > 0.  Which pieces exist follows from
    the coefficients, not from whether a root is finite, so a piece may end
    at an overflowed inf; but where 4*qa overflows or the discriminant is
    NaN, the 1-roots are the 0-roots to rounding and both pieces are empty.
    touch: the pieces meet at one point to rounding, as rb - ra within
    _MERGE_TOL*max(1, rb) or, where qa < 0, a discriminant within _TOUCH of
    (a1*b2 - a2*b1)^2.

    The 1-roots are stabilized against cancellation, and the discriminant is
    written (a1*b2 - a2*b1)^2 + 4*qa, which never cancels where qa > 0 and
    cancels only at a tangent touch where qa < 0.  centred takes
    (-qb -+ s)/(2*qa), so the symmetric roots of qb = 0 come out bit for bit.
    Every branch is evaluated, so each divisor is kept off zero with
    x + (x == 0.0) and sqrt never sees a negative: no float operation raises.
    """
    inf = math.inf
    qa, qb, qc, w = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0, a1 * b2 - a2 * b1
    ww, qa4 = w * w, 4.0 * qa
    disc = ww + qa4
    s = sqrt(disc * (disc > 0.0))
    q = -0.5 * (qb + pick(qb < 0.0, -s, s))
    wa, wq = qa + (qa == 0.0), q + (q == 0.0)
    wa2 = 2.0 * wa
    real, centred = (qa != 0.0) & (disc >= 0.0), (disc == 0.0) | (qb == 0.0)
    z1 = pick(b1 != 0.0, -a1 / (b1 + (b1 == 0.0)), inf)
    z2 = pick(b2 != 0.0, -a2 / (b2 + (b2 == 0.0)), inf)
    t1 = pick(real, pick(centred, (-qb - s) / wa2, q / wa),
              pick((qa == 0.0) & (qb != 0.0), -qc / (qb + (qb == 0.0)), inf))
    t2 = pick(real, pick(centred, (-qb + s) / wa2, qc / wq), inf)
    low, high = z2 < z1, t2 < t1
    ra, rb = pick(low, z2, z1), pick(low, z1, z2)
    s1, s2 = pick(high, t2, t1), pick(high, t1, t2)
    # no 1-root: the set is (ra, rb) where qa < 0, and empty where g1*g2 is constant
    # or its coefficients overflowed
    big = (abs(qa4) == inf) | (disc != disc)
    none = (disc < 0.0) | (qa == 0.0) & (qb == 0.0) | big
    s1, s2 = pick(none, pick((qa < 0.0) > big, rb, ra), s1), pick(none, rb, s2)
    up = (qa > 0.0) | (qa == 0.0) & (s1 < ra)
    touch = ((rb - ra <= _MERGE_TOL) | (rb - ra <= _MERGE_TOL * rb)
             | (qa < 0.0) & (disc <= _TOUCH * ww))
    return pick(up, s1, ra), pick(up, ra, s1), pick(up, rb, s2), pick(up, s2, rb), touch


def _supremum(l, f, r1, r2, pick, sqrt):
    """(d_max, contiguous, found) of the stable distance set of valid elements.

    found: a piece of _pieces is nonempty past d = 0; d_max is then the end
    of the last such piece, else 0.0.  contiguous: found, and the set is not
    split, as it is where both pieces are nonempty and do not touch.  Masks
    meet only through &, |, pick and a > b (a and not b, on bools and bool
    columns): on a Python bool ~True is -2, so no mask is negated.
    """
    lo1, hi1, lo2, hi2, touch = _pieces(*_affine(l, f, r1, r2), pick, sqrt)
    one, two = (hi1 > lo1) & (hi1 > 0.0), (hi2 > lo2) & (hi2 > 0.0)
    found = one | two
    return pick(two, hi2, pick(one, hi1, 0.0)), found > ((one & two) > touch), found


def stable_distance_intervals(geom: CavityGeometry, d_limit: float) -> DistanceIntervals:
    """All maximal open subintervals of (0, d_limit) where the cavity is stable.

    These are the pieces of the stable set (see _pieces) that are nonempty
    past d = 0, clipped to (0, d_limit); where the two pieces touch, the
    second starts where the first ends, so an isolated touch point splits
    the set into two intervals that share it.  Returns an empty set when the
    cavity is nowhere stable.
    """
    if not (d_limit > 0 and math.isfinite(d_limit)):
        require("d_limit", d_limit, False, "finite and > 0")
    lo1, hi1, lo2, hi2, touch = _pieces(
        *_affine(geom.l, geom.f, geom.r1, geom.r2), _pick, math.sqrt)
    out = [(lo if lo > 0.0 else 0.0, hi if hi < d_limit else d_limit)
           for lo, hi in ((lo1, hi1), (lo2, hi2)) if hi > lo and hi > 0.0 and lo < d_limit]
    if touch and len(out) == 2:
        out[1] = (out[0][1], out[1][1])
    return DistanceIntervals(tuple(out))


def max_transmission_distance(geom: CavityGeometry) -> MaxDistance:
    """Supremum of the stable distance set plus a contiguity flag.

    The set is bounded in exact arithmetic, so the supremum is a boundary
    root; it reads inf where that root lies past the float range.  The flag
    reports whether the set is contiguous from its infimum when isolated
    touch points (zero-width gaps) are ignored.

    Raises
    ------
    NoStableRegionError
        When no distance is stable.
    """
    d_max, contiguous, found = _supremum(geom.l, geom.f, geom.r1, geom.r2, _pick, math.sqrt)
    if not found:
        raise NoStableRegionError("no transmission distance satisfies 0 < g1*g2 < 1")
    return MaxDistance(d_max, contiguous)


def _design(l, f, r1, branch, pick):
    """(r2, d_max, ok, found) of the connected-branch design at R1 = r1, on a checked l, f and branch.

    ok: the design exists; connecting_r2 returns this r2, its 1/rho2, and
    raises where ok is false.  found: ok, and some distance is stable;
    d_max is then the supremum of the stable distances of the exact design
    at r1.  A body on floats or numpy columns: divisors are kept off zero.

    On a connected branch g2 = c0^2*g1 (origin) or 2*c0 - c0^2*g1
    (tangent), so with u = c0*g1, affine in d, g1*g2 is u^2 or
    1 - (u - 1)^2: stable iff u is in (-1, 1) less 0, or in (0, 2) less 1.
    The stable set is one interval less its touch point, and its end is
    where u reaches -1 or 1 (origin), 0 or 2 (tangent), as u falls or
    rises.  With d0 and d1 of _lens_mirror, u = t at d1 + (t - 1)*(d1 - d0).
    Near R1 = l - f, d0's r1 + f - l is summed by TwoSum, where den
    cancels; l - f is exact where c0 = 1 - l/f cancels.
    An end that is exactly 0 then comes out 0: where c0*g1(0) is 0 (R1 = l),
    or, with a flat f, 2 or -1.  r1 + f - l is 0 only where l - r1 - f is,
    so no design passes ok and then has d0 = 0/0.
    """
    c0, den, varies, d1 = _lens_mirror(l, f, r1, pick)
    rho2 = -c0 * den if branch == TANGENT else c0 * den
    r2 = 1.0 / (rho2 + (rho2 == 0.0))
    ok = _is_element(r1) & (c0 != 0.0) & (l != f) & varies & (rho2 != 0.0) & _is_element(r2)
    s = r1 + f
    t = s - r1
    num = (s - l) + ((r1 - (s - t)) + (f - t))  # r1 + f - l
    d0 = pick(f == FLAT, r1 - l, pick(r1 == FLAT, f, f * ((r1 - l) / (num + (num == 0.0)))))
    rising = d1 > d0
    if branch == ORIGIN:
        d_max = pick(rising, d1, 2.0 * d0 - d1)
    else:
        d_max = pick(rising, 2.0 * d1 - d0, d0)
    return r2, d_max, ok, ok & (d_max > 0.0)


def connecting_r2(l: float, f: float, r1: float, branch: str) -> float:
    """Receiver curvature that merges the two stability regions.

    Two line placements connect the regions: through the origin with positive
    slope (``branch="origin"``) or tangent to the hyperbola g1*g2 = 1 with
    negative slope (``branch="tangent"``).  Writing phi = 1/f, c0 = 1 - l*phi,
    both are closed-form (the tangency discriminant vanishes identically):

        1/r2 = +c0*(phi + c0/r1)   (origin,  slope = +c0^2)
        1/r2 = -c0*(phi + c0/r1)   (tangent, slope = -c0^2, intercept = 2*c0)

    The r2 returned is _design's, the one body that writes this form and
    decides whether a design exists; where none does, the first of these says why.

    Raises
    ------
    WrongSignSlopeError
        When l = f, which forces a zero slope on either branch.
    NoSolutionError
        When g1 does not depend on d (phi + c0/r1 = 0, e.g. l - r1 - f = 0),
        so no line placement exists.
    UnitError
        Naming r1, when r2 would not be a valid element (0 or -inf), as for a
        subnormal r1.
    """
    if branch not in BRANCHES:
        require("branch", branch, False, f"one of {BRANCHES}")
    _check_l_f(l, f)
    _check_element("r1", r1)
    r2, _, ok, _ = _design(l, f, r1, branch, _pick)
    if ok:
        return r2
    c0, _, varies, _ = _lens_mirror(l, f, r1, _pick)  # which rule refused it
    if c0 == 0.0 or l == f:
        raise WrongSignSlopeError("l equals f: the stability line is horizontal on both branches")
    if not varies:
        raise NoSolutionError("g1 is independent of d for this (l, f, r1); no connecting line exists")
    # c0*den underflowed to +-0.0, or an overflowed 1/r1 gave r2 = +-0.0
    require("r1", r1, False, f"an R1 whose connecting r2 is {_ELEMENT}")


def r1_range_for_distance(
    target_d: float, l: float, f: float, branch: str, search_interval: tuple[float, float]
) -> list[tuple[float, float]]:
    """Maximal R1 subintervals whose connected-branch design reaches target_d.

    By _design, the reach of the design at R1 is set by d0 and d1 (_d1).  d1
    does not depend on R1, and d0 rises on each side of its pole R1 = l - f:
    from f to +inf below it, from -inf to f above it (a flat f has
    d0 = R1 - l, rising everywhere).  With T = target_d, every design
    reaches where d1 >= T (and d1 > 0); otherwise the design reaches iff
    d0 >= (T + d1)/2 (origin), or d0 >= T or d0 <= 2*d1 - T (tangent).  A
    threshold D inverts in one division,

        R1(D) = (D - d1)*(f - l)/(f - D)    (D - d1 for a flat f),

    and which side of the pole it cuts is known from D against f, so the
    edges need no root search and no test point; they are exact to the
    rounding of d1 and D.
    No design exists at R1 = 0 and R1 = l - f, nor where _design's r2 leaves
    the float range: |R1| <= max(1, c0^2)*2^-1024 (r2 rounds to 0), and
    within f^2*2^-1024 of l - f on the side where 1/r2 < 0 (r2 rounds to
    -inf; wider than an ULP of l - f only for |f| past about 1e292).  An
    interval ends where one of these begins, and reaching neighbours join
    across it, so an interval may hold such a singular point.

    Raises EmptyResultError when no R1 in the interval qualifies.
    """
    if not 0.0 <= target_d < math.inf:
        require("target_d", target_d, False, "finite and >= 0")
    lo, hi = search_interval
    for key, bound in (("search_from", lo), ("search_to", hi)):
        if not math.isfinite(bound):
            require(key, bound, False, "finite")
    if not lo < hi:
        require("search_from", lo, False, f"< search_to = {hi!r}")
    _check_l_f(l, f)
    if branch not in BRANCHES:
        require("branch", branch, False, f"one of {BRANCHES}")

    inf = math.inf
    # neither depends on R1; with r2 flat too, g2 = a2 = c0 - l*0.0 = c0
    c0, d1 = _affine(l, f, FLAT, FLAT)[2], _d1(l, f, _pick)
    flat = f == FLAT
    if d1 >= target_d and d1 > 0.0:  # the spans of d0 that reach
        spans = [(-inf, inf)]
    elif branch == ORIGIN:
        spans = [(0.5 * target_d + 0.5 * d1, inf)]
    else:
        spans = [(-inf, 2.0 * d1 - target_d), (target_d, inf)]
    band = max(1.0, c0 * c0) * 2.0 ** -1024
    holes = [(-band, band)]
    if c0 == 0.0 or l == f:  # no design anywhere
        sides = []
    elif flat:
        sides = [(-inf, inf, -inf, inf)]  # R1 from, R1 to, d0 from, d0 to
    else:
        p, w = l - f, abs(f) * (abs(f) * 2.0 ** -1024)
        holes.append((p, p + w) if branch == ORIGIN else (p - w, p))  # 1/r2 < 0 on that side
        sides = [(-inf, p, f, inf), (p, inf, -inf, f)]

    def r1_at(D):  # the R1 where d0 = D
        return D - d1 if flat else (D - d1) * ((f - l) / (f - D))

    out: list[tuple[float, float]] = []
    for r_from, r_to, d_from, d_to in sides:
        for u, v in spans:
            if u >= d_to or v <= d_from:
                continue
            # an edge that rounds past the pole stays on its side
            a = max(lo, r_from if u <= d_from else max(r1_at(u), r_from))
            b = min(hi, r_to if v >= d_to else min(r1_at(v), r_to))
            for h0, h1 in holes:
                if h0 <= a < h1:
                    a = h1
                if h0 < b <= h1:
                    b = h0
            if a >= b:
                continue
            # join across a hole, and across a gap that rounding closed
            if out and (a <= out[-1][1] or any(out[-1][1] == h0 and a == h1 for h0, h1 in holes)):
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
        Vacuum wavelength in meters; UnitError names it where a radius is not finite.

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
    if not _stable(g):
        raise UnstableConfigurationError(
            f"g1*g2 = {g[1] * g[2]}: mode radii require 0 < g1*g2 < 1"
        )
    w = _radii(geom.l, geom.f, geom.r1, geom.r2, d, g, wavelength / math.pi, math.sqrt)
    if not (w[0] < math.inf and w[1] < math.inf and w[2] < math.inf):  # NaN fails too
        require("wavelength", wavelength, False, "such that the mode radii are finite")
    return BeamRadii(*w)
