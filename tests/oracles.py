"""Independent reference computations used to check the library.

Everything here recomputes physics through a different route than the
production code: mode radii via the complex-beam-parameter fixed point of
explicitly composed ray matrices, the stability test via the trace of the
round-trip ray matrix, stable ranges via pointwise scanning, R1 design
ranges via a dense R1 scan, the reach and the R1 edges via lists (the route
resbeam took before it read the stable set off the shape of g1*g2), the
reach of a connected-branch design, the existence of a stable distance and
the whole stable set in exact rational arithmetic,
calibration targets via direct algebraic inversion, mode diffraction loss
via adaptive quadrature of the radial intensity, and dataset CSV cells one
value at a time.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy import integrate
from scipy.special import eval_genlaguerre


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def _prop(t):
    return np.array([[1.0, t], [0.0, 1.0]])


def _lens(f):
    return np.array([[1.0, 0.0], [-_inv(f), 1.0]])


def _mirror(r):
    return np.array([[1.0, 0.0], [-2.0 * _inv(r), 1.0]])


def _chain(*ms):
    out = np.eye(2)
    for m in ms:
        out = out @ m
    return out


def round_trip_matrix(geom, d):
    """Paraxial round-trip ray matrix starting at M1.

    Element order: propagate l, thin lens f, propagate d, mirror r2,
    propagate d, thin lens f, propagate l, mirror r1.  The product is
    unimodular and ``|trace/2| < 1`` away from boundaries exactly where
    ``is_stable`` holds.
    """
    return _chain(_mirror(geom.r1), _prop(geom.l), _lens(geom.f), _prop(d),
                  _mirror(geom.r2), _prop(d), _lens(geom.f), _prop(geom.l))


def _self_consistent_spot(M: np.ndarray, wavelength: float) -> float:
    """Spot size of the q satisfying q = (Aq+B)/(Cq+D) at this plane."""
    A, B, C, D = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
    tr = A + D
    if abs(tr) >= 2.0:
        raise ValueError(f"no confined mode: |trace/2| = {abs(tr) / 2}")
    if C == 0.0:
        raise ValueError("degenerate reference plane (C = 0)")
    s = math.sqrt(4.0 - tr * tr)
    q = complex(A - D, math.copysign(s, C)) / (2.0 * C)
    assert q.imag > 0
    return math.sqrt(wavelength * abs(q) ** 2 / (math.pi * q.imag))


def q_parameter_radii(l, f, r1, r2, d, wavelength):
    """(w_gain, w_m1, w_m2) from round-trip fixed points at the three planes."""
    at_lens = _chain(_lens(f), _prop(l), _mirror(r1), _prop(l), _lens(f),
                     _prop(d), _mirror(r2), _prop(d))
    at_m1 = _chain(_mirror(r1), _prop(l), _lens(f), _prop(d), _mirror(r2),
                   _prop(d), _lens(f), _prop(l))
    at_m2 = _chain(_prop(d), _lens(f), _prop(l), _mirror(r1), _prop(l),
                   _lens(f), _prop(d), _mirror(r2))
    return (
        _self_consistent_spot(at_lens, wavelength),
        _self_consistent_spot(at_m1, wavelength),
        _self_consistent_spot(at_m2, wavelength),
    )


def stability_mask(l, f, r1, r2, d_grid):
    """Pointwise 0 < g1*g2 < 1 on a distance grid, straight from the formulas."""
    d = np.asarray(d_grid, dtype=float)
    L = l + d - l * d * _inv(f)
    g1 = 1.0 - d * _inv(f) - L * _inv(r1)
    g2 = 1.0 - l * _inv(f) - L * _inv(r2)
    gg = g1 * g2
    return (gg > 0.0) & (gg < 1.0)


def scan_intervals(l, f, r1, r2, d_limit, step):
    """Stable intervals from a brute-force scan at the given step."""
    d = np.arange(step, d_limit, step)
    mask = stability_mask(l, f, r1, r2, d)
    out = []
    start = d[0] if mask[0] else None
    for i in range(1, len(d)):
        if mask[i] and not mask[i - 1]:
            start = d[i]
        elif not mask[i] and mask[i - 1]:
            out.append((start, d[i - 1]))
            start = None
    if start is not None:
        out.append((start, d[-1]))
    return out


def scan_transitions(mask, d_grid):
    """Distances where a stability mask flips, located between samples."""
    flips = np.flatnonzero(np.diff(mask.astype(np.int8)))
    return [0.5 * (d_grid[i] + d_grid[i + 1]) for i in flips]


def scan_r1_range(target, l, f, branch, lo, hi, points=20001):
    """R1 runs whose connected-branch design reaches target, from a dense R1 scan.

    The grid spans [lo, hi] and skips the single points without a design,
    R1 = 0 and R1 = l - f (where rounding decides the reach of the R1 within a
    few ULPs).  Each row takes its r2 from 1/r2 = s*c0*(1/f + c0/r1), reads
    the affine g coefficients off the defining formulas at d = 0 and d = 1,
    and reaches when some distance past the target is stable: a midpoint
    between the target, the later roots of g1 = 0, g2 = 0 and g1*g2 = 1, and
    two points beyond them.  Returns the (first, last) grid point of every
    reaching run.
    """
    r1 = np.linspace(lo, hi, points)
    r1 = r1[(r1 != 0.0) & (np.abs(r1 - (l - f)) > 1e-12)][:, None]
    phi = _inv(f)
    c0 = 1.0 - l * phi
    inv_r2 = (1.0 if branch == "origin" else -1.0) * c0 * (phi + c0 / r1)

    def g(d):
        L = l + d - l * d * phi
        return 1.0 - d * phi - L / r1, 1.0 - l * phi - L * inv_r2

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        (a1, a2), (e1, e2) = g(0.0), g(1.0)
        b1, b2 = e1 - a1, e2 - a2
        qa, qb, qc = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0
        sq = np.sqrt(qb * qb - 4.0 * qa * qc)
        roots = np.hstack([-a1 / b1, -a2 / b2, (-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)])
    later = np.where(np.isfinite(roots) & (roots > target), roots, target)
    pts = np.sort(np.hstack([np.full_like(r1, target), later]), axis=1)
    pts = np.hstack([pts, pts[:, -1:] + 1.0, pts[:, -1:] + 2.0])
    g1, g2 = g(0.5 * (pts[:, 1:] + pts[:, :-1]))
    gg = g1 * g2
    reach = ((gg > 0.0) & (gg < 1.0)).any(axis=1)
    r1 = r1[:, 0]
    flips = np.flatnonzero(np.diff(reach.astype(np.int8)))
    starts = [0] * bool(reach[0]) + [i + 1 for i in flips if reach[i + 1]]
    ends = [i for i in flips if reach[i]] + [len(r1) - 1] * bool(reach[-1])
    return [(float(r1[i]), float(r1[j])) for i, j in zip(starts, ends)]


# The list-based reach: each root by its own branch, the candidates merged in
# a list and each gap between them tested a quarter of the way in.  resbeam
# computed its reach so until it read the stable set's pieces off the sign of
# the leading coefficient of g1*g2; above rounding level both give one answer.

LIST_MERGE_TOL = 1e-9  # boundaries closer than this (meters) are one root


def quadratic_roots(a: float, b: float, c: float) -> list[float]:
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


def _list_affine(l, f, r1, r2):
    """(a1, b1, a2, b2) with g1 = a1 + b1*d and g2 = a2 + b2*d, written out."""
    phi = 1.0 / f
    c0 = 1.0 - l * phi
    return 1.0 - l * (1.0 / r1), -(phi + c0 * (1.0 / r1)), c0 - l * (1.0 / r2), -c0 * (1.0 / r2)


def _list_stable(l, f, r1, r2, d) -> bool:
    phi = 1.0 / f
    L = l + d - l * d * phi
    gg = (1.0 - d * phi - L * (1.0 / r1)) * (1.0 - l * phi - L * (1.0 / r2))
    return 0.0 < gg < 1.0


def list_boundaries(l, f, r1, r2) -> list[float]:
    """All d > 0 where g1*g2 crosses or touches 0 or 1, near-duplicates merged."""
    a1, b1, a2, b2 = _list_affine(l, f, r1, r2)
    cands = []
    if b1 != 0.0:
        cands.append(-a1 / b1)
    if b2 != 0.0:
        cands.append(-a2 / b2)
    cands += quadratic_roots(b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0)
    merged: list[float] = []
    for c in sorted(c for c in cands if c > 0.0 and math.isfinite(c)):
        if merged and c - merged[-1] <= LIST_MERGE_TOL * max(1.0, c):
            continue
        merged.append(c)
    return merged


def list_segments(l, f, r1, r2, points) -> list[tuple[float, float]]:
    """The gaps between consecutive points wider than LIST_MERGE_TOL, stable a quarter in."""
    return [(lo, hi) for lo, hi in zip(points, points[1:])
            if hi - lo > LIST_MERGE_TOL and _list_stable(l, f, r1, r2, lo + 0.25 * (hi - lo))]


def list_reach(l, f, r1, r2) -> tuple[float, bool, str]:
    """(d_max, contiguous, flag): the end of the last stable segment, whether no
    gap wider than LIST_MERGE_TOL parts two segments, and "no-stable-region"
    (with 0.0 and False) when there is no segment."""
    segments = list_segments(l, f, r1, r2, [0.0] + list_boundaries(l, f, r1, r2))
    if not segments:
        return 0.0, False, "no-stable-region"
    contiguous = all(nxt_lo - hi <= LIST_MERGE_TOL
                     for (_, hi), (nxt_lo, _) in zip(segments, segments[1:]))
    return segments[-1][1], contiguous, ""


# Exact references.  Every float is a rational and 1/FLAT is 0, so a design's
# g-parameters, taken from their definitions at d = 0 and d = 1, are exact.

def _exact_inv(x: float) -> Fraction:
    return Fraction(0) if math.isinf(x) else 1 / Fraction(x)


def exact_affine(l, f, r1, inv_r2) -> tuple[Fraction, ...]:
    """(a1, b1, a2, b2) with g1 = a1 + b1*d and g2 = a2 + b2*d, exact, for 1/r2 = inv_r2."""
    l, phi, inv_r1 = Fraction(l), _exact_inv(f), _exact_inv(r1)

    def g(d):
        L = l + d - l * d * phi
        return 1 - d * phi - L * inv_r1, 1 - l * phi - L * inv_r2

    (a1, a2), (e1, e2) = g(0), g(1)
    return a1, e1 - a1, a2, e2 - a2


def _square_root(q: Fraction) -> Fraction:
    root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
    assert root * root == q, q
    return root


def exact_branch_reach(l, f, r1, branch):
    """(d_max, found) of the exact connected-branch design at R1 = r1, in Fractions, or None
    where it has none (c0 = 0, or g1 independent of d).

    Its 1/r2 = s*c0*(1/f + c0/r1) is taken exactly.  The stable set's boundaries
    are the roots of g1 = 0, g2 = 0 and g1*g2 = 1, rational on a connected
    branch (the quadratic's discriminant is a square: both roots of the origin
    branch are rational, and the tangent branch's touch point is a double
    root), and the gap between each pair of them is classed at its midpoint;
    d_max is the end of the last stable gap, 0 when none is.
    """
    phi, inv_r1 = _exact_inv(f), _exact_inv(r1)
    c0 = 1 - Fraction(l) * phi
    den = phi + c0 * inv_r1
    if c0 == 0 or den == 0:
        return None
    a1, b1, a2, b2 = exact_affine(l, f, r1, (1 if branch == "origin" else -1) * c0 * den)
    qa, qb, qc = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1
    s = _square_root(qb * qb - 4 * qa * qc)
    roots = {-a1 / b1, -a2 / b2, (-qb - s) / (2 * qa), (-qb + s) / (2 * qa)}
    points = [Fraction(0)] + sorted(r for r in roots if r > 0)
    stable = [hi for lo, hi in zip(points, points[1:])
              if 0 < (a1 + b1 * (lo + hi) / 2) * (a2 + b2 * (lo + hi) / 2) < 1]
    return (stable[-1], True) if stable else (Fraction(0), False)


def exact_d0(l, f, r1) -> Fraction:
    """d0 = f*(r1 - l)/(r1 + f - l) of the connected-branch design at R1 = r1, exactly
    (r1 - l for a flat f): the root of g1, whose position against exact_d1 sets the
    design's reach."""
    l, r1 = Fraction(l), Fraction(r1)
    if math.isinf(f):
        return r1 - l
    return Fraction(f) * (r1 - l) / (r1 + Fraction(f) - l)


def exact_d1(l, f) -> Fraction:
    """d1 = l*f/(l - f) of every connected-branch design at l, f, exactly (-l for a flat f):
    where c0*g1 = 1.  It is d0 at R1 = 0."""
    return exact_d0(l, f, 0)


def exact_r1_range(target, l, f, branch, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """The R1 in (lo, hi) whose exact connected-branch design reaches target, in Fractions:
    ordered open intervals, reaching neighbours joined across any point between them.

    d1 = l*f/(l - f) (-l for a flat f) is the same for every R1, so an edge is an R1
    where d0 meets one of the thresholds (T + d1)/2, T or 2*d1 - T; d0 is a Moebius map
    of R1, which meets each D != f at one R1 = (f*l + D*(f - l))/(f - D) (D + l for a
    flat f).  These, 0 and l - f are the candidates, and each gap between them is classed
    by exact_branch_reach at its midpoint, so no threshold rule is taken on trust.
    """
    T, L, lo, hi = Fraction(target), Fraction(l), Fraction(lo), Fraction(hi)
    if l == f:
        return []
    d1 = exact_d1(l, f)
    if math.isinf(f):
        cands = {D + L for D in ((T + d1) / 2, T, 2 * d1 - T)}
    else:
        F = Fraction(f)
        cands = {(F * L + D * (F - L)) / (F - D) for D in ((T + d1) / 2, T, 2 * d1 - T) if D != F}
        cands.add(L - F)
    points = [lo, *sorted(c for c in cands | {Fraction(0)} if lo < c < hi), hi]
    out: list[tuple[Fraction, Fraction]] = []
    for a, b in zip(points, points[1:]):
        reach = exact_branch_reach(l, f, (a + b) / 2, branch)
        if not (reach and reach[1] and reach[0] >= T):
            continue
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def exact_stable_exists(l, f, r1, r2) -> bool:
    """Whether some d > 0 has 0 < g1*g2 < 1 for the float design (l, f, r1, r2), decided exactly.

    P = g1*g2 is a polynomial of degree <= 2.  Between 0, the positive roots of
    g1 and g2 and P's vertex it is monotone and of one sign, and past the last
    of them it is monotone and, where positive, not falling.  So a gap holds a
    stable distance iff P is positive inside it and below 1 at one of its ends
    (at its start, past the last point).
    """
    a1, b1, a2, b2 = exact_affine(l, f, r1, _exact_inv(r2))

    def P(d):
        return (a1 + b1 * d) * (a2 + b2 * d)

    qa, qb = b1 * b2, a1 * b2 + a2 * b1
    cuts = [-a1 / b1 if b1 else 0, -a2 / b2 if b2 else 0, -qb / (2 * qa) if qa else 0]
    points = [Fraction(0)] + sorted({c for c in cuts if c > 0})
    for lo, hi in zip(points, points[1:] + [None]):
        inside = P(lo + 1) if hi is None else P((lo + hi) / 2)
        low = P(lo) if hi is None else min(P(lo), P(hi))
        if inside > 0 and low < 1:
            return True
    return False


EXACT_DIGITS = 120  # the digits of an irrational root of g1*g2 = 1


def _unit_roots(qa: Fraction, qb: Fraction, qc: Fraction) -> list[Fraction]:
    """The real roots of qa*x^2 + qb*x + qc: exact where rational, else to EXACT_DIGITS digits."""
    if qa == 0:
        return [-qc / qb] if qb else []
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
        s = Fraction(math.isqrt(num), math.isqrt(den))
    else:
        with localcontext() as ctx:
            ctx.prec = EXACT_DIGITS
            s = Fraction((Decimal(num) / Decimal(den)).sqrt())
    q = -(qb + (s if qb >= 0 else -s)) / 2  # -qb and the root add, never cancel
    return [q / qa, qc / q] if q else [Fraction(0)]


def exact_reach(l, f, r1, r2) -> list[tuple[Fraction, Fraction]]:
    """The stable set {d > 0 : 0 < g1*g2 < 1} of the float design (l, f, r1, r2), as ordered
    open intervals of Fractions (an end past every root would read inf).

    The boundaries are 0, the positive roots of g1 = 0 and g2 = 0, exact, and those of
    g1*g2 = 1 (_unit_roots).  Each gap between consecutive boundaries is classed by g1*g2
    at its midpoint, exactly, and the tail past the last boundary one meter on.  Stable
    gaps stay apart, so two intervals that share an end meet at a touch point.
    """
    a1, b1, a2, b2 = exact_affine(l, f, r1, _exact_inv(r2))

    def P(d):
        return (a1 + b1 * d) * (a2 + b2 * d)

    cuts = [-a1 / b1 if b1 else 0, -a2 / b2 if b2 else 0,
            *_unit_roots(b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1)]
    points = [Fraction(0)] + sorted({c for c in cuts if c > 0})
    return [(lo, math.inf if hi is None else hi)
            for lo, hi in zip(points, points[1:] + [None])
            if 0 < P(lo + 1 if hi is None else (lo + hi) / 2) < 1]


def aperture_for_coefficient(target_f, d, r_out, m_overlap, c_unused, wavelength, l):
    """Aperture radius giving gain-to-beam coefficient target_f, by inversion."""
    delta = 2.0 * (1.0 - r_out) * m_overlap / ((1.0 + r_out) * target_f) + math.log(r_out)
    if delta <= 0:
        raise ValueError(f"target {target_f} beyond the zero-loss ceiling")
    return math.sqrt(-math.log(delta) * wavelength * (l + d) / (2.0 * math.pi))


def quadrature_mode_loss(m, n, aperture_radius, spot):
    """Loss of LG mode (m, n) at the aperture by adaptive radial quadrature.

    Integrates s^(2m+1) [L_n^m(2s^2)]^2 exp(-2s^2) in units of the spot size
    over [0, a/w] and over the whole mode, out to 8 spot sizes past the
    classical turning point, and checks that the integrand is spent there.
    """

    def radial(s):
        return s ** (2 * m + 1) * eval_genlaguerre(n, m, 2.0 * s * s) ** 2 * math.exp(-2.0 * s * s)

    def quad(lo, hi):
        val, err = integrate.quad(radial, lo, hi, epsabs=1e-9, epsrel=1e-10, limit=200)
        assert math.isfinite(val) and err <= 10 * max(1e-9, 1e-10 * abs(val)), (lo, hi, err)
        return val

    upper = math.sqrt(2.0 * n + m + 1.0) + 8.0
    full = quad(0.0, upper)
    assert full > 0 and quad(upper, 2.0 * upper) <= max(1e-12, 1e-10 * full)
    u = aperture_radius / spot
    if u >= upper:
        return 0.0
    return min(1.0, max(0.0, 1.0 - quad(0.0, u) / full))


def random_connected_geometry(rng, branch_sign=None):
    """(l, f, r1, r2) from the randomized family with a connected-branch r2."""
    while True:
        l = rng.uniform(0.04, 0.12)
        f = rng.uniform(0.3, 2.0)
        r1 = rng.uniform(-2.0, -0.5)
        phi = 1.0 / f
        c0 = 1.0 - l * phi
        den = phi + c0 / r1
        if abs(den) < 1e-6 or abs(c0) < 1e-6:
            continue
        sign = branch_sign if branch_sign is not None else (1 if rng.rand() < 0.5 else -1)
        return l, f, r1, 1.0 / (sign * c0 * den)


def csv_cell(x: float) -> str:
    """One CSV cell as emit_dataset wrote it when it formatted cell by cell."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")
