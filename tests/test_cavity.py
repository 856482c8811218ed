import math
import random
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resbeam import (
    BRANCHES,
    FLAT,
    ORIGIN,
    TANGENT,
    CavityGeometry,
    DegenerateLineError,
    EmptyResultError,
    NoSolutionError,
    NoStableRegionError,
    UnstableConfigurationError,
    ResbeamError,
    UnitError,
    WrongSignSlopeError,
    SweepSpec,
    beam_radii,
    connecting_r2,
    effective_length,
    g_parameters,
    is_stable,
    max_transmission_distance,
    r1_range_for_distance,
    stability_line,
    stable_distance_intervals,
    sweep,
)
from resbeam import cavity, explorer, max_distance_vs_r1

import oracles

COLUMNS = explorer._column_kit()
LAM = 1.064e-6
# a valid mirror or lens element: |x| in [0.02, 5] m, either sign, or flat
ELEMENT = st.one_of(st.floats(-5.0, -0.02), st.floats(0.02, 5.0), st.just(FLAT))


def geom(l=0.06, f=0.88, r1=-1.0, r2=5.2466):
    return CavityGeometry(l=l, f=f, r1=r1, r2=r2)


class TestGeometryValidation:
    def test_rejects_nonpositive_l(self):
        with pytest.raises(ValueError):
            CavityGeometry(l=0.0, f=0.88, r1=-1.0, r2=5.0)

    def test_rejects_zero_curvature(self):
        with pytest.raises(ValueError):
            CavityGeometry(l=0.06, f=0.88, r1=0.0, r2=5.0)

    def test_flat_marker_accepted(self):
        g = CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT)
        assert math.isinf(g.f)

    def test_rejects_negative_infinity(self):
        with pytest.raises(ValueError):
            CavityGeometry(l=0.06, f=-math.inf, r1=-1.0, r2=5.0)


class TestEffectiveLength:
    def test_with_lens(self):
        assert effective_length(geom(), 1.0) == pytest.approx(0.9918181818181819, rel=1e-12)

    def test_flat_lens(self):
        assert effective_length(geom(f=FLAT), 1.0) == 1.06

    def test_zero_distance(self):
        assert effective_length(geom(), 0.0) == 0.06
        assert effective_length(geom(f=FLAT), 0.0) == 0.06

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            effective_length(geom(), -0.1)
        # a non-finite d gets the same rule on every kernel, not a False or a NaN record
        kernels = (effective_length, g_parameters, is_stable,
                   lambda g, d: beam_radii(g, d, 1.064e-6))
        for kernel in kernels:
            for d in (-0.1, math.nan, math.inf, -math.inf):
                with pytest.raises(UnitError, match="d: must be finite and >= 0"):
                    kernel(geom(), d)


class TestGParameters:
    def test_all_flat_gives_unity(self):
        der = g_parameters(CavityGeometry(l=0.05, f=FLAT, r1=FLAT, r2=FLAT), 3.0)
        assert der.g1 == 1.0 and der.g2 == 1.0

    def test_confocal_symmetry_gives_zero(self):
        l, d = 0.06, 1.44
        der = g_parameters(CavityGeometry(l=l, f=FLAT, r1=l + d, r2=l + d), d)
        assert der.g1 == pytest.approx(0.0, abs=1e-15)
        assert der.g2 == pytest.approx(0.0, abs=1e-15)

    def test_reference_point(self):
        der = g_parameters(geom(r2=-5.0), 1.0)
        assert der.g1 == pytest.approx(0.8554545454545455, rel=1e-12)
        assert der.g2 == pytest.approx(1.1301818181818182, rel=1e-12)
        assert der.L == pytest.approx(0.9918181818181819, rel=1e-12)

    def test_x_flagged_at_zero_distance(self):
        der = g_parameters(geom(), 0.0)
        assert not der.x_defined
        assert math.isfinite(der.g1) and math.isfinite(der.g2)

    def test_x_value(self):
        der = g_parameters(geom(), 2.0)
        assert der.x == pytest.approx(1 / 0.88 - 1 / 0.06 - 1 / 2.0, rel=1e-12)
        assert der.u1 == pytest.approx(0.06 * (1 + 0.06), rel=1e-12)
        assert der.u2 == pytest.approx(2.0 * (1 - 2.0 / 5.2466), rel=1e-12)


class TestIsStable:
    def test_reference_point_is_stable(self):
        g = geom(r2=-5.0)
        der = g_parameters(g, 1.0)
        assert der.g1 * der.g2 == pytest.approx(0.966819173553719, rel=1e-12)
        assert is_stable(g, 1.0)

    def test_plane_parallel_boundary_excluded(self):
        assert not is_stable(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT), 1.0)

    def test_touch_point_of_connected_branch(self):
        # At the through-origin solution g1 and g2 vanish together at
        # d* = f*(l - r1)/(l - r1 - f); the touch is excluded while both
        # sides remain stable.
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        g = geom(r2=r2)
        d_touch = 0.88 * 1.06 / 0.18
        der = g_parameters(g, d_touch)
        assert abs(der.g1 * der.g2) < 1e-12
        assert is_stable(g, d_touch - 1e-3)
        assert is_stable(g, d_touch + 1e-3)
        (_, hi1), (lo2, _) = stable_distance_intervals(g, 20.0).intervals
        # both intervals are open at a shared boundary equal to the touch point
        assert hi1 == lo2
        assert hi1 == pytest.approx(d_touch, abs=1e-9)


class TestStabilityLine:
    def test_positive_branch_line(self):
        line = stability_line(geom(r2=5.2466))
        assert line.slope == pytest.approx(0.8682871870460017, rel=1e-12)
        assert line.intercept == pytest.approx(0.0, abs=1e-5)  # r2 rounded to 0.1 mm

    def test_negative_r2_line(self):
        line = stability_line(geom(r2=-5.0))
        assert line.slope == pytest.approx(-0.9111111111111111, rel=1e-12)
        assert line.intercept == pytest.approx(1.9095959595959596, rel=1e-12)
        der = g_parameters(geom(r2=-5.0), 1.0)
        assert line.g2_at(der.g1) == pytest.approx(der.g2, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.3), ELEMENT, ELEMENT, st.none() | st.integers(-64, 64))
    # dyadic values so l - r1 - f = 0 holds exactly in binary floats
    @example(0.25, 0.5, -0.25, None)
    @example(0.06, FLAT, FLAT, None)  # all-flat f and r1: g1 = 1
    @example(0.06, FLAT, -1.0, None)
    @example(0.06, 0.88, FLAT, None)
    # R1 = l - f as it rounds, and 1 and 64 ULPs to either side
    @example(0.06, 0.88, FLAT, 0)
    @example(0.06, 0.88, FLAT, 1)
    @example(0.06, 0.88, FLAT, -1)
    @example(0.06, 0.88, FLAT, 64)
    @example(0.06, 0.88, FLAT, -64)
    # l - r1 - f is exactly 0 while phi + c0/r1 rounds to -8.9e-16
    @example(0.2549, 0.2216, FLAT, 0)
    def test_degenerate_when_g1_constant(self, l, f, r1, ulps):
        # where g1 does not depend on d there is no line, no connecting r2 and no design;
        # where it does, connecting_r2 gives an r2 exactly where _design's ok holds, on rows
        # and on columns.  With c0 = 0 or l = f no design exists whatever g1 does.
        if ulps is not None and math.isfinite(f):
            r1 = stepped(l - f, ulps) or FLAT
        try:
            stability_line(CavityGeometry(l=l, f=f, r1=r1, r2=5.0))
            degenerate = False
        except DegenerateLineError:
            degenerate = True
        if l - r1 - f == 0.0 or f == r1 == FLAT:
            assert degenerate, (l, f, r1)
        for branch in BRANCHES:
            try:
                connecting_r2(l, f, r1, branch)
                refused = None
            except WrongSignSlopeError:
                return
            except (NoSolutionError, UnitError) as exc:
                refused = type(exc)
            assert (refused is NoSolutionError) == degenerate, (l, f, r1)
            ok = cavity._design(l, f, r1, branch, cavity._pick)[2]
            with np.errstate(all="ignore"):
                column = cavity._design(l, f, np.array([r1]), branch, np.where)[2]
            assert ok == bool(column[0]) == (refused is None), (l, f, r1, branch)

    def test_line_membership_random(self):
        rng = np.random.RandomState(11)
        for _ in range(100):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            line = stability_line(CavityGeometry(l=l, f=f, r1=r1, r2=r2))
            for d in rng.uniform(0.0, 10.0, size=10):
                der = g_parameters(CavityGeometry(l=l, f=f, r1=r1, r2=r2), float(d))
                assert line.g2_at(der.g1) == pytest.approx(der.g2, abs=1e-9)

    def test_affinity_three_point_collinearity(self):
        rng = np.random.RandomState(12)
        for _ in range(50):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            d0, d1, d2 = (g_parameters(g, d) for d in (0.0, 1.0, 2.0))
            # equally spaced distances: the middle sample is the average
            assert d1.g1 == pytest.approx(0.5 * (d0.g1 + d2.g1), abs=1e-12)
            assert d1.g2 == pytest.approx(0.5 * (d0.g2 + d2.g2), abs=1e-12)


class TestStableDistanceIntervals:
    def test_connected_branch_splits_at_touch_point(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        ivals = stable_distance_intervals(geom(r2=r2), 20.0)
        assert len(ivals) == 2
        (lo1, hi1), (lo2, hi2) = ivals.intervals
        assert lo1 == 0.0
        assert hi1 == pytest.approx(5.182222222222222, rel=1e-9)
        assert lo2 == hi1  # zero-width gap at the touch point
        assert hi2 == pytest.approx(10.428834688346878, rel=1e-9)

    def test_rounded_r2_opens_a_real_gap(self):
        # r2 = 5.2466 (0.1 mm rounding) separates the g1 and g2 roots by
        # ~0.16 mm, so a genuine unstable sliver appears between them.
        ivals = stable_distance_intervals(geom(r2=5.2466), 20.0)
        assert len(ivals) == 2
        (_, hi1), (lo2, hi2) = ivals.intervals
        assert hi1 == pytest.approx(5.18220975609756, rel=1e-9)
        assert lo2 == pytest.approx(5.182222222222219, rel=1e-9)
        assert hi2 == pytest.approx(10.428822222222221, rel=1e-9)

    def test_plane_parallel_empty(self):
        ivals = stable_distance_intervals(
            CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT), 20.0
        )
        assert ivals.is_empty

    def test_linear_case_single_root(self):
        ivals = stable_distance_intervals(
            CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=10.0), 20.0
        )
        assert len(ivals) == 1
        (lo, hi), = ivals.intervals
        assert lo == 0.0
        assert hi == pytest.approx(9.94, rel=1e-12)

    def test_scan_equivalence_sample(self):
        rng = np.random.RandomState(13)
        for _ in range(20):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            ivals = stable_distance_intervals(CavityGeometry(l=l, f=f, r1=r1, r2=r2), 20.0)
            scanned = oracles.scan_intervals(l, f, r1, r2, 20.0, step=1e-3)
            merged = _merge_small_gaps(ivals.intervals, 1e-3)
            assert len(merged) == len(scanned)
            for (alo, ahi), (slo, shi) in zip(merged, scanned):
                assert abs(alo - slo) <= 2e-3
                assert abs(ahi - shi) <= 2e-3

    def test_boundaries_sit_on_criticality(self):
        rng = np.random.RandomState(14)
        for _ in range(30):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            for lo, hi in stable_distance_intervals(g, 20.0):
                for b in (lo, hi):
                    if b in (0.0, 20.0):
                        continue
                    der = g_parameters(g, b)
                    gg = der.g1 * der.g2
                    assert min(abs(gg), abs(gg - 1.0)) < 1e-9

    def test_interior_points_are_stable(self):
        rng = np.random.RandomState(23)
        for _ in range(30):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            for lo, hi in stable_distance_intervals(g, 20.0):
                for t in (0.1, 0.37, 0.5, 0.82, 0.9):
                    assert is_stable(g, lo + t * (hi - lo))


def _merge_small_gaps(intervals, tol):
    merged = []
    for lo, hi in intervals:
        if merged and lo - merged[-1][1] <= tol:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


PAST_THE_FLOAT_RANGE = (1e300, -1e300, 1.9999999999999983e300, FLAT)

# |x| log-uniform in [0.01, 10], either sign
LOG_SIGNED = st.builds(math.copysign, st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e),
                       st.sampled_from([1.0, -1.0]))


def stepped(x: float, k: int) -> float:
    """x moved k ULPs, toward +inf for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def geometries(draw):
    """Free geometries, connected-branch designs and designs a few ULPs from R1 = l - f."""
    l, f, r1 = draw(st.floats(0.01, 0.3)), draw(ELEMENT), draw(ELEMENT)
    if math.isfinite(f) and draw(st.booleans()):
        # g1 stops depending on d at R1 = l - f; rounding decides the neighbours
        r1 = stepped(l - f, draw(st.integers(-6, 6))) or FLAT
    branch = draw(st.sampled_from([None, ORIGIN, TANGENT]))  # tangent: zero discriminant
    try:
        r2 = connecting_r2(l, f, r1, branch) if branch else draw(ELEMENT)
        return CavityGeometry(l=l, f=f, r1=r1, r2=r2)
    except (NoSolutionError, WrongSignSlopeError, UnitError):
        return CavityGeometry(l=l, f=f, r1=r1, r2=draw(ELEMENT))


class TestMaxTransmissionDistance:
    def test_connected_branch(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        md = max_transmission_distance(geom(r2=r2))
        assert md.d_max == pytest.approx(10.428834688346878, rel=1e-9)
        assert md.contiguous  # touch point only, zero-width gap

    def test_rounded_r2_not_contiguous(self):
        md = max_transmission_distance(geom(r2=5.2466))
        assert md.d_max == pytest.approx(10.428822222222221, rel=1e-9)
        assert not md.contiguous  # the 0.16 mm sliver is a real gap

    def test_linear_case(self):
        md = max_transmission_distance(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=10.0))
        assert md.d_max == pytest.approx(9.94, rel=1e-12)
        assert md.contiguous

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 0.3), st.floats(1.0, 1e300))
    @example(0.06, 1e18)  # past 2**53 m, where d + 1 m rounds back to d
    def test_plane_mirrors_reach_r2_minus_l(self, l, r2):
        # f = r1 = FLAT: g1 = 1 and g2 = 1 - (l + d)/r2, so the stable set is (0, r2 - l)
        md = max_transmission_distance(CavityGeometry(l=l, f=FLAT, r1=FLAT, r2=r2))
        assert abs(md.d_max - (r2 - l)) <= 2 * math.ulp(r2 - l) and md.contiguous
        with np.errstate(all="ignore"):
            d_max, contiguous, _ = column_reach(*map(np.atleast_1d, (l, FLAT, FLAT, r2)))
        assert (bits(d_max[0]), bool(contiguous[0])) == (bits(md.d_max), True)

    def test_no_stable_region(self):
        with pytest.raises(NoStableRegionError):
            max_transmission_distance(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.3), LOG_SIGNED, LOG_SIGNED)
    # the touch point's discriminant rounds negative, and g1*g2 rounds to >= 1 at the
    # midpoint of the gap between the roots of g1 = 0 and g2 = 0; the last has l > f
    @example(0.15579429746852422, 0.09779609198763684, -0.3372565495547999)
    @example(0.06629440704570498, 0.020571817767210707, -0.07730685742119849)
    @example(0.2875637216234658, 0.01040225242571834, 2.893728194498793)
    # R1 = l + 1 ULP: the exact stable set is (0, 5.2e-18 m)
    @example(0.01, 1.0, 0.010000000000000005)
    def test_tangent_designs_find_the_exact_stable_set(self, l, f, r1):
        # the generic reach and the intervals, on the written r2, find a stable distance
        # exactly where one exists for that r2
        try:
            g = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, TANGENT))
        except ResbeamError:
            return
        try:
            d_limit, found = 2.0 * max_transmission_distance(g).d_max, True
        except NoStableRegionError:
            d_limit, found = 1e6, False
        assert found == oracles.exact_stable_exists(l, f, r1, g.r2)
        assert bool(stable_distance_intervals(g, d_limit).intervals) == found

    @settings(max_examples=300, deadline=None)
    @given(geometries(), st.floats(1.0, 4.0))
    # rounding once listed a sliver past d_max = 0.4794 m among the intervals, up to 0.9588 m
    @example(CavityGeometry(l=0.09247961859153848, f=-2.1520962894516376,
                            r1=2.2445759080431764, r2=-8636090240930615.0), 2.0)
    def test_the_reach_and_the_intervals_give_one_answer(self, g, past):
        # up to any d_limit >= d_max the intervals end at d_max, bit for bit, and they are
        # empty exactly where there is no reach
        try:
            d_max = max_transmission_distance(g).d_max
        except NoStableRegionError:
            assert stable_distance_intervals(g, 1e300).is_empty
            return
        assume(math.isfinite(past * d_max))
        intervals = stable_distance_intervals(g, past * d_max).intervals
        assert intervals and bits(intervals[-1][1]) == bits(d_max)

    def test_a_reach_past_the_float_range_reads_inf(self, default_params):
        # b1 = -8.3e-316: the exact stable set runs out to about 6e314 m
        l, f, r1, r2 = PAST_THE_FLOAT_RANGE
        assert oracles.exact_reach(l, f, r1, r2)[-1][1] > Fraction(2) ** 1024
        g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
        assert max_transmission_distance(g).d_max == math.inf
        spec = SweepSpec("R1", [r1], default_params._replace(geometry=g))
        for rows_max in (math.inf, -1):  # rows, then columns
            with patch.object(explorer, "ROWS_MAX", rows_max):
                ds = sweep(spec)
            assert ds.flags == ["overflow"] and ds.columns["d_max_m"] == [0.0]

    @pytest.mark.parametrize("l, f, r1, branch", [
        *[(0.25, FLAT, r1, branch) for r1 in (-1e-160, 1e-200, -1.35e-216) for branch in BRANCHES],
        # 4*b1*b2 overflows while b1*b2 does not, and the discriminant is NaN on the tangent
        # branch or +inf on the origin branch
        (0.06, 0.88, 1e-154, TANGENT), (0.06, 0.88, -1e-154, TANGENT),
        (0.06, 0.88, 1e-154, ORIGIN),
    ])
    def test_an_overflowed_parabola_has_no_reach(self, l, f, r1, branch, default_params):
        # a connected design with tiny |R1|: b1*b2 overflows, and the exact set is empty
        g = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch))
        assert not oracles.exact_reach(l, f, r1, g.r2)
        assert not cavity._design(l, f, r1, branch, cavity._pick)[3]
        with pytest.raises(NoStableRegionError):
            max_transmission_distance(g)
        assert stable_distance_intervals(g, 20.0).is_empty
        spec = SweepSpec("R1", [r1], default_params._replace(geometry=g))
        for rows_max in (math.inf, -1):  # rows, then columns
            with patch.object(explorer, "ROWS_MAX", rows_max):
                ds = sweep(spec)
            assert ds.flags == ["no-stable-region"] and ds.columns["d_max_m"] == [0.0]


class TestConnectingR2:
    def test_through_origin_value(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        assert r2 == pytest.approx(1936.0 / 369.0, rel=1e-12)
        line = stability_line(geom(r2=r2))
        assert line.slope == pytest.approx((1 - 0.06 / 0.88) ** 2, rel=1e-12)
        assert line.slope > 0
        assert line.intercept == pytest.approx(0.0, abs=1e-12)

    def test_origin_roots_coincide(self):
        rng = np.random.RandomState(15)
        for _ in range(50):
            l, f, r1, _ = oracles.random_connected_geometry(rng)
            r2 = connecting_r2(l, f, r1, ORIGIN)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            d0, d1 = g_parameters(g, 0.0), g_parameters(g, 1.0)
            root1 = -d0.g1 / (d1.g1 - d0.g1)
            root2 = -d0.g2 / (d1.g2 - d0.g2)
            assert abs(root1 - root2) < 1e-9 * max(1.0, abs(root1))

    def test_tangent_value_and_tangency(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, TANGENT)
        assert r2 == pytest.approx(-1936.0 / 369.0, rel=1e-12)
        line = stability_line(geom(r2=r2))
        assert line.slope < 0
        # line g2 = s*g1 + c intersects g1*g2 = 1 where s*g1^2 + c*g1 - 1 = 0;
        # tangency means zero discriminant
        assert line.intercept**2 + 4 * line.slope == pytest.approx(0.0, abs=1e-9)

    def test_connected_geometry_has_no_positive_gap(self):
        rng = np.random.RandomState(16)
        for _ in range(40):
            l, f, r1, _ = oracles.random_connected_geometry(rng)
            for branch in (ORIGIN, TANGENT):
                g = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch))
                ivals = stable_distance_intervals(g, 50.0).intervals
                gaps = [lo2 - hi1 for (_, hi1), (lo2, _) in zip(ivals, ivals[1:])]
                assert len(gaps) <= 1
                for w in gaps:
                    assert w <= 1e-9

    def test_degenerate_inputs(self):
        with pytest.raises(NoSolutionError):
            connecting_r2(0.25, 0.5, -0.25, ORIGIN)  # l - r1 - f = 0 exactly
        with pytest.raises(WrongSignSlopeError):
            connecting_r2(0.88, 0.88, -1.0, ORIGIN)
        with pytest.raises(ValueError):
            connecting_r2(0.06, 0.88, -1.0, "sideways")


class TestBeamRadii:
    def test_symmetric_cavity_mirror_symmetry(self):
        g = CavityGeometry(l=0.5, f=FLAT, r1=2.0, r2=2.0)
        r = beam_radii(g, 0.5, LAM)
        assert r.w_m1 == pytest.approx(r.w_m2, rel=1e-12)

    def test_reference_values_match_q_oracle(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        r = beam_radii(geom(r2=r2), 1.0, LAM)
        assert r.w_gain == pytest.approx(7.637125094656365e-4, rel=1e-9)
        assert r.w_m1 == pytest.approx(7.199913307036133e-4, rel=1e-9)
        assert r.w_m2 == pytest.approx(7.726736231941216e-4, rel=1e-9)

    def test_random_against_q_oracle(self):
        rng = np.random.RandomState(17)
        done = 0
        while done < 100:
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            d = rng.uniform(0.001, 20.0)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            der = g_parameters(g, d)
            gg = der.g1 * der.g2
            if not 1e-6 < gg < 1 - 1e-6:
                continue
            mine = beam_radii(g, d, LAM)
            ref = oracles.q_parameter_radii(l, f, r1, r2, d, LAM)
            assert mine.w_gain == pytest.approx(ref[0], rel=1e-9)
            assert mine.w_m1 == pytest.approx(ref[1], rel=1e-9)
            assert mine.w_m2 == pytest.approx(ref[2], rel=1e-9)
            done += 1

    def test_divergence_near_boundary(self):
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        g = geom(r2=r2)
        w = [beam_radii(g, d, LAM).w_m2 for d in (9.0, 10.0, 10.4, 10.4288)]
        assert w[0] < w[1] < w[2] < w[3]
        assert w[3] > 10 * w[0]

    def test_zero_distance_edge(self):
        # u2 = 0 and x is undefined at d = 0, but the expanded planar term
        # stays finite; M2 sits at the rod so those two radii coincide
        r2 = connecting_r2(0.06, 0.88, -1.0, ORIGIN)
        g = geom(r2=r2)
        assert is_stable(g, 0.0)
        r = beam_radii(g, 0.0, LAM)
        assert r.w_gain == pytest.approx(r.w_m2, rel=1e-12)
        ref = oracles.q_parameter_radii(0.06, 0.88, -1.0, r2, 0.0, LAM)
        assert r.w_gain == pytest.approx(ref[0], rel=1e-9)
        assert r.w_m1 == pytest.approx(ref[1], rel=1e-9)

    def test_unstable_raises(self):
        with pytest.raises(UnstableConfigurationError):
            beam_radii(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT), 1.0, LAM)

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            beam_radii(geom(), 1.0, 0.0)


class TestRoundTripMatrix:
    def test_all_flat_is_free_space(self):
        g = CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT)
        M = oracles.round_trip_matrix(g, 1.0)
        assert np.allclose(M, [[1.0, 2.12], [0.0, 1.0]], atol=1e-15)
        assert abs((M[0, 0] + M[1, 1]) / 2) == 1.0

    def test_unimodular_moderate_family(self):
        rng = np.random.RandomState(18)
        for _ in range(500):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            d = rng.uniform(0.0, 2.0)
            M = oracles.round_trip_matrix(CavityGeometry(l=l, f=f, r1=r1, r2=r2), d)
            assert abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] - 1.0) < 1e-12

    def test_trace_matches_g1g2(self):
        rng = np.random.RandomState(19)
        for _ in range(300):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            d = rng.uniform(0.0, 20.0)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            M = oracles.round_trip_matrix(g, d)
            der = g_parameters(g, d)
            half_trace = (M[0, 0] + M[1, 1]) / 2
            assert half_trace == pytest.approx(2 * der.g1 * der.g2 - 1, rel=1e-9, abs=1e-9)

    def test_stability_criteria_equivalence(self):
        rng = np.random.RandomState(20)
        for _ in range(1000):
            l, f, r1, r2 = oracles.random_connected_geometry(rng)
            d = rng.uniform(0.0, 20.0)
            g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            der = g_parameters(g, d)
            gg = der.g1 * der.g2
            if min(abs(gg), abs(gg - 1.0)) <= 1e-9:
                continue
            M = oracles.round_trip_matrix(g, d)
            assert is_stable(g, d) == (abs(M[0, 0] + M[1, 1]) / 2 < 1.0)


# ---------------------------------------------------------------------------
# Column kernels against the scalar kernels, bit for bit

def columns_of(geoms):
    return [np.array([getattr(g, k) for g in geoms]) for k in ("l", "f", "r1", "r2")]


def column_reach(l, f, r1, r2):
    """(d_max, contiguous, found) of the reach body on the column kit's primitives."""
    return cavity._supremum(l, f, r1, r2, COLUMNS.pick, COLUMNS.sqrt)


def bits(x: float) -> str:
    return float(x).hex()


class TestColumnKernels:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(geometries(), min_size=1, max_size=25))
    @example([CavityGeometry(l=0.06, f=0.88, r1=-0.8200000000000066, r2=FLAT)])
    # the g1*g2 = 1 quadratic has b = 0 exactly, and the two root formulas
    # differ in the last bit of the positive root
    @example([CavityGeometry(l=0.25, f=0.1, r1=0.75, r2=-0.25)])
    def test_reach_matches_max_transmission_distance(self, geoms):
        with np.errstate(all="ignore"):
            d_max, contiguous, found = column_reach(*columns_of(geoms))
        for i, g in enumerate(geoms):
            try:
                md = max_transmission_distance(g)
                want = ("", bits(md.d_max), md.contiguous)
            except NoStableRegionError:
                want = ("no-stable-region", bits(0.0), False)
            first = "" if found[i] else "no-stable-region"
            assert (first, bits(d_max[i]), bool(contiguous[i])) == want, g

    @settings(max_examples=200, deadline=None)
    @given(geometries(), st.lists(st.floats(0.0, 60.0), max_size=20), st.integers(0, 3))
    def test_stability_columns_match_scalar(self, g, ds, ulps):
        # the ends of the stable pieces and their neighbours, where g1*g2 meets 0 or 1
        ends = cavity._pieces(*cavity._affine(g.l, g.f, g.r1, g.r2), cavity._pick, math.sqrt)[:4]
        for c in [c for c in ends if 0.0 < c < math.inf]:
            ds += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
            ds += [c + k * math.ulp(c) for k in (-ulps, ulps)]
        d = np.array(ds + [0.0])
        with np.errstate(all="ignore"):
            L, g1, g2 = cavity._g_terms(g.l, g.f, g.r1, g.r2, d)
            stable = cavity._stable(cavity._g_terms(g.l, g.f, g.r1, g.r2, d))
        for i, x in enumerate(d.tolist()):
            der = g_parameters(g, x)
            want = (bits(der.L), bits(der.g1), bits(der.g2))
            assert (bits(L[i]), bits(g1[i]), bits(g2[i])) == want
            assert bool(stable[i]) is is_stable(g, x)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 0.3), ELEMENT, st.lists(ELEMENT, min_size=1, max_size=20),
           st.sampled_from([ORIGIN, TANGENT]))
    @example(0.25, 0.5, [-0.25, -1.0], ORIGIN)  # l - r1 - f = 0 exactly
    @example(0.88, 0.88, [-1.0], TANGENT)  # l = f
    # l - r1 - f is exactly 0 while phi + c0/r1 rounds to -8.9e-16
    @example(0.2549, 0.2216, [0.2549 - 0.2216], ORIGIN)
    @example(0.06, FLAT, [FLAT, -1.0], ORIGIN)  # all-flat f and r1: phi + c0/r1 is exactly 0
    # c0*(phi + c0/r1) underflows to -+0.0, so r2 would be infinite
    @example(1e308, 1.0000000000000004e308, [-5.551115123125724e292], ORIGIN)
    @example(1e308, 1.0000000000000004e308, [-5.551115123125724e292], TANGENT)
    @example(0.05478167673755327, 0.05478167673755327, [-1.0], ORIGIN)  # l = f, c0 = -1.1e-16
    def test_connecting_r2_columns_match_scalar(self, l, f, r1s, branch):
        # the design rule runs cavity._design on the column; a row with no design is flagged
        with np.errstate(all="ignore"):
            (r2, _, _), flag = explorer._design_rule(l, f, branch)(COLUMNS, np.array(r1s))
        solvable = np.broadcast_to(flag, len(r1s)) != "no-solution"
        for i, r1 in enumerate(r1s):
            try:
                want = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch)).r2
            except (NoSolutionError, WrongSignSlopeError, UnitError):
                assert not solvable[i] and r2[i] == 0.0
                continue
            assert solvable[i] and bits(r2[i]) == bits(want)


# ---------------------------------------------------------------------------
# The reach body against the list route of tests/oracles.py and the exact stable set

NEAR_L_MINUS_F = -0.8200000000000066  # a few ULPs from R1 = l - f at l = 0.06, f = 0.88
EPS = 2.0 ** -52


def cancellation(l, f, r1, r2) -> float:
    """The smallest of |x| against the sizes of the terms it sums, exactly, for x = b1, c0,
    a1 = 1 - l/r1, a2 = c0 - l/r2 and a1*a2 - 1 of g1 = a1 + b1*d, g2 = a2 + b2*d.  Near
    1e-16 that value, and any reach on it, is rounding: b1 near R1 = l - f, c0 near l = f,
    and the others where a root of g1, g2 or g1*g2 = 1 lies at d = 0 (R1 = l, r2 = l with
    flat optics, or a1*a2 = 1, as for R1 = r2 = l/2 with a flat f)."""
    l, phi, inv_r1, inv_r2 = Fraction(l), *map(oracles._exact_inv, (f, r1, r2))
    c0 = 1 - l * phi
    a1, a2 = 1 - l * inv_r1, c0 - l * inv_r2

    def share(x, size):
        return abs(x) / size if size else 1  # a sum of exact zeros does not round

    return float(min(share(phi + c0 * inv_r1, abs(phi) + abs(c0 * inv_r1)),
                     share(c0, 1 + abs(l * phi)), share(a1, 1 + abs(l * inv_r1)),
                     share(a2, abs(c0) + abs(l * inv_r2)), share(a1 * a2 - 1, abs(a1 * a2) + 1)))


# Above this cancellation the reach answers as the exact stable set does.  Over 200,000
# random designs (oracles.exact_reach; l in [0.01, 0.3] m, |f|, |R1| and |r2| log-uniform
# in [0.01, 10] m, some flat, some R1 within 6 ULPs of l - f, half with a connected r2),
# the 172,710 above it had found and contiguity right in every draw, and d_max within
# 6.4*EPS/cancellation of the exact end.  Below it rounding makes or drops stable sets of
# about 1e-17 m: of 6,000 designs with R1, f, or r2 with flat optics, within 3 ULPs of l,
# 115 read the wrong found.
ABOVE_ROUNDING = 1e-6
REACH_BUDGET = 64  # d_max within REACH_BUDGET*EPS/cancellation of the exact end, relative


def exact_answer(l, f, r1, r2):
    """(found, d_max, widest gap) of oracles.exact_reach: the widest gap between stable
    intervals is a share of max(1, its start), and 0 where they meet at touch points."""
    intervals = oracles.exact_reach(l, f, r1, r2)
    if not intervals:
        return False, Fraction(0), Fraction(0)
    gaps = [(b[0] - a[1]) / max(1, a[1]) for a, b in zip(intervals, intervals[1:])]
    return True, intervals[-1][1], max(gaps, default=Fraction(0))


def reach_row(g):
    """(flag, d_max bits, contiguous) of max_transmission_distance, as a dataset row reads it."""
    try:
        md = max_transmission_distance(g)
        return "", bits(md.d_max), md.contiguous
    except NoStableRegionError:
        return "no-stable-region", bits(0.0), False


def list_found(l, f, r1, r2) -> bool:
    return oracles.list_reach(l, f, r1, r2)[2] == ""


class TestListReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(geometries(), min_size=1, max_size=25),
           st.one_of(st.floats(1e-3, 100.0), st.floats(100.0, 1e300)))
    @example([CavityGeometry(l=0.06, f=0.88, r1=NEAR_L_MINUS_F, r2=FLAT)], 1e300)
    @example([CavityGeometry(l=0.06, f=0.88, r1=NEAR_L_MINUS_F,
                             r2=connecting_r2(0.06, 0.88, NEAR_L_MINUS_F, branch))
              for branch in (ORIGIN, TANGENT)], 1e300)
    @example([CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=1e18)], 1e300)  # past 2**53 m
    @example([CavityGeometry(l=0.25, f=0.1, r1=0.75, r2=-0.25)], 20.0)  # quadratic b = 0
    @example([geom(), geom(r2=3.0), geom(r2=connecting_r2(0.06, 0.88, -1.0, TANGENT))], 5.0)
    # an exact tangent touch at d = 0.25 m, whose discriminant rounds negative: one interval
    @example([CavityGeometry(l=0.25, f=0.125, r1=-1.875, r2=0.1171875)], 1.0)
    def test_reach_and_intervals_match_the_list_route(self, geoms, d_limit):
        # rows and columns give one answer, bit for bit; above rounding level it is the list
        # route's and the exact set's, and so are the intervals
        with np.errstate(all="ignore"):
            d_max, contiguous, found = column_reach(*columns_of(geoms))
        for i, g in enumerate(geoms):
            row = reach_row(g)
            assert ("" if found[i] else "no-stable-region", bits(d_max[i]), bool(contiguous[i])) == row
            elements = (g.l, g.f, g.r1, g.r2)
            if (c := cancellation(*elements)) <= ABOVE_ROUNDING:
                continue
            exact_found, exact_end, gap = exact_answer(*elements)
            assert (row[0] == "") == exact_found == list_found(*elements), g
            if exact_found:
                end = float.fromhex(row[1])
                assert abs(Fraction(end) - exact_end) <= REACH_BUDGET * EPS / c * exact_end, g
                if gap == 0 or gap > Fraction(1, 10**6):
                    assert row[2] == (gap == 0), g
            # stable inside, exactly; sevenths, as an interval may hold a touch point
            a1, b1, a2, b2 = oracles.exact_affine(*elements[:3], oracles._exact_inv(g.r2))
            for lo, hi in stable_distance_intervals(g, d_limit):
                for k in range(1, 7):
                    d = Fraction(lo) + (Fraction(hi) - Fraction(lo)) * k / 7
                    assert 0 < (a1 + b1 * d) * (a2 + b2 * d) < 1, (g, lo, hi)

    def test_found_near_l_minus_f_is_no_worse_than_the_list_route(self):
        # within 64 ULPs of R1 = l - f the reach is rounding, but it misses the exact answer
        # less often than the list route, which tested a point inside each gap
        rng = random.Random(26)

        def log_signed():  # |x| log-uniform in [0.01, 10], either sign
            return math.copysign(10.0 ** rng.uniform(-2.0, 1.0), rng.random() - 0.5)

        wrong = Counter()
        for _ in range(2000):
            l, f = rng.uniform(0.01, 0.3), log_signed()
            r1 = stepped(l - f, rng.randint(-64, 64)) or FLAT
            try:
                r2 = connecting_r2(l, f, r1, rng.choice(BRANCHES)) if rng.random() < 0.5 else log_signed()
                g = CavityGeometry(l=l, f=f, r1=r1, r2=r2)
            except ResbeamError:
                continue
            exact = exact_answer(g.l, g.f, g.r1, g.r2)[0]
            wrong["library"] += (reach_row(g)[0] == "") != exact
            wrong["list route"] += list_found(g.l, g.f, g.r1, g.r2) != exact
        assert wrong["library"] < wrong["list route"], wrong

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 20.0), st.floats(0.01, 0.3), ELEMENT, st.sampled_from([ORIGIN, TANGENT]),
           st.floats(-3.0, 3.0), st.floats(1e-6, 4.0))
    @example(5.0, 0.06, 0.88, ORIGIN, -1.5, 1.0)
    @example(3.0, 0.06, 0.88, TANGENT, -0.85, 0.05)  # around R1 = l - f = -0.82
    @example(0.5, 0.06, 0.88, TANGENT, -2.0, 4.0)  # two intervals, R1 = 0 between
    @example(5.0, 0.88, 0.88, ORIGIN, -1.5, 1.0)  # l = f: no design anywhere
    @example(1.0, 0.06, 0.88, ORIGIN, -1.7e308, 7e307)  # past +-9e307
    @example(5.0, 0.06, FLAT, ORIGIN, -1.5, 3.0)  # a flat f: f - D is inf - D
    @example(0.5, 0.06, FLAT, TANGENT, -1.5, 3.0)
    @example(1.5, 0.25, 0.5, ORIGIN, -3.0, 6.0)  # D = (T + d1)/2 = f exactly
    @example(0.5, 0.25, 0.5, TANGENT, -3.0, 6.0)  # D = T = f exactly
    @example(0.0, 0.25, -0.25, TANGENT, -3.0, 6.0)  # T = 0 and D = 2*d1 - T = f
    @example(0.0, 0.06, 0.88, ORIGIN, -1.5, 3.0)  # T = 0: a design reaches only if d_max > 0
    @example(5.0, 0.25, 0.5, ORIGIN, -1.25, 1.0)  # the window ends at l - f = -0.25 exactly
    @example(5.0, 0.25, 0.5, TANGENT, -0.25, 1.0)  # and starts there
    @example(0.5, 0.06, 0.88, ORIGIN, -0.5, 1.0)  # a window straddling 0
    @example(0.0, 0.25, 0.125, ORIGIN, 0.0, 1.0)  # from 0: the edge is the band's, 2^-1024
    # a sliver 1.2e-12 m wide: the exact set is (0.2500009999988..., 0.250001)
    @example(1e-6, 0.25, -1.0, TANGENT, 0.25, 1e-6)
    # SUBNORMAL_SLOPE's R1 and its neighbours up to l - f: the reach overflows, the whole window
    @example(1e300, 0.06, 1e300, ORIGIN, -1.0000000000000003e300, 2.974033816955566e284)
    def test_r1_range_matches_the_exact_edges(self, target, l, f, branch, lo, width):
        # the intervals of the exact search (oracles.exact_r1_range), each edge within
        # R1_EDGE_ULPS ULPs of the exact one, or else the exact edge of a threshold within
        # R1_EDGE_ULPS ULPs of max(|D|, |d1|): an edge near R1 = 0 where T is near d1, or far
        # out where D is near f, is ill-conditioned.  R1 within R1_BAND of 0 has no design
        # (r2 = 1/rho2 rounds to 0), so an edge there reads the band's
        def wide(intervals):  # an interval narrower than the budget may read either way
            return [(a, b) for a, b in intervals if b - a > R1_EDGE_ULPS * math.ulp(float(b))]

        want = wide(oracles.exact_r1_range(target, l, f, branch, lo, lo + width))
        try:
            got = wide(r1_range_for_distance(target, l, f, branch, (lo, lo + width)))
        except EmptyResultError:
            got = []
        assert len(got) == len(want), (got, want)
        for edges, exact_edges in zip(got, want):
            for x, y in zip(edges, exact_edges):
                if abs(x - y) <= R1_EDGE_ULPS * math.ulp(float(y)) + R1_BAND:
                    continue
                D, d1 = oracles.exact_d0(l, f, y), oracles.exact_d1(l, f)
                budget = R1_EDGE_ULPS * EPS * (abs(D) + abs(d1))
                assert abs(oracles.exact_d0(l, f, x) - D) <= budget, (x, y)

    def test_r1_range_keeps_a_sliver(self):
        # the exact set is 1.2e-12 m wide, narrower than the merge tolerance the search had
        (lo, hi), = r1_range_for_distance(1e-6, 0.25, -1.0, TANGENT, (0.25, 0.250001))
        assert hi == 0.250001 and 0.0 < hi - lo < 2e-12


# Over 100,000 random searches of the distribution above (seed 27; 149,656 edges, 17,673 of
# them inexact), the smaller of the two errors was at most 2.6 ULPs.  The edge error alone
# reached 23 ULPs, where f - D cancelled (D = 2*d1 - T = 0.068 m, f = 0.074 m).
R1_EDGE_ULPS = 8
R1_BAND = 2.0 ** -1000  # past max(1, c0^2)*2^-1024 for every |c0| < 2^12


ROOT_COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-4.0, 4.0), st.floats())
# (a1, b1, a2, b2) with g1 = a1 + b1*x, g2 = a2 + b2*x; the quadratic is
# qa*x^2 + qb*x + qc with qa = b1*b2, qb = a1*b2 + a2*b1, qc = a1*a2 - 1
ROOT_CASES = [
    (0.5, 1.0, 1.5, -1.0),  # disc == 0 exactly, qb = 1: the tangent touch point
    (2.0, 1.0, 2.0, -1.0),  # qb == 0, disc = 12
    (1.0, 2.0, 3.0, 0.0),  # qa == 0, qb = 6: one quadratic root
    (1.0, 0.0, 1.0, 0.0),  # qa == qb == 0: none
    (0.0, 1.0, 0.0, -1.0),  # disc < 0: none
    (0.25, 1.0, 3.0, 2.0),  # two distinct real roots
]
NONZERO_SLOPE = st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0))


class TestRoots:
    """The reach body cavity._pieces on raw coefficients (a1, b1, a2, b2) of g1 = a1 + b1*x,
    g2 = a2 + b2*x: its pieces end at the roots of g1, g2 and g1*g2 - 1."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[ROOT_COEFFICIENT] * 4), min_size=1, max_size=20))
    @example(ROOT_CASES)
    @example([(5e-324, 5e-324, 5e-324, 5e-324), (1e308, 1e308, -1e308, 1e308),
              (math.nan, 1.0, 1.0, 1.0), (1.0, math.inf, 1.0, -0.0), (-0.0, -0.0, 0.0, 0.0)])
    def test_floats_never_raise_and_equal_columns(self, coefficients):
        rows = [cavity._pieces(*c, cavity._pick, math.sqrt) for c in coefficients]
        with np.errstate(all="ignore"):
            columns = cavity._pieces(*map(np.array, zip(*coefficients)), np.where, np.sqrt)
        for i, (*ends, touch) in enumerate(rows):
            want = [bits(c[i]) for c in columns[:4]], bool(columns[4][i])
            assert ([bits(x) for x in ends], touch) == want, coefficients[i]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-10.0, 10.0), NONZERO_SLOPE, st.floats(-10.0, 10.0), NONZERO_SLOPE)
    def test_well_conditioned_roots_match_numpy(self, a1, b1, a2, b2):
        qa, qb, qc = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0
        # the discriminant's sign is clear and no root is near a double root
        assume(abs(qb * qb - 4.0 * qa * qc) > 1e-3 * (qb * qb + abs(4.0 * qa * qc)))
        self.check_against_numpy(a1, b1, a2, b2)

    @pytest.mark.parametrize("a1, b1, a2, b2", ROOT_CASES)
    def test_special_cases_match_numpy(self, a1, b1, a2, b2):
        self.check_against_numpy(a1, b1, a2, b2)

    @staticmethod
    def check_against_numpy(a1, b1, a2, b2):
        # the pieces end only at roots of g1, g2 and g1*g2 - 1, and at each real one
        lo1, hi1, lo2, hi2, _ = cavity._pieces(a1, b1, a2, b2, cavity._pick, math.sqrt)
        assert hi1 <= lo2
        got = {x for x in (lo1, hi1, lo2, hi2) if x != math.inf}
        quadratic = [b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0]
        want = {r.real for p in ([b1, a1], [b2, a2], quadratic) for r in np.roots(p)
                if abs(r.imag) <= 1e-9 * max(1.0, abs(r))}
        for xs, ys in ((got, want), (want, got)):
            for x in xs:
                assert any(x == pytest.approx(y, rel=1e-9, abs=1e-12) for y in ys), (x, ys)


def public_design(l, f, r1, branch):
    """(r2, d_max, contiguous, flag) by connecting_r2, CavityGeometry and
    max_transmission_distance, or the class of the error on the way."""
    try:
        g = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch))
    except ResbeamError as exc:
        return type(exc)
    try:
        return (bits(g.r2), *map(bits, max_transmission_distance(g)), "")
    except NoStableRegionError:
        return bits(g.r2), bits(0.0), bits(False), "no-stable-region"


def check_against_the_public_route(l, f, r1, branch, d_max, found):
    # on a design that exists: the generic reach on its written r2, above rounding level.  Of
    # 100,000 random draws (a fifth near R1 = l - f, some near R1 = l or f = l), the 54,576
    # designs above it matched _design, d_max within 7.9e-13; a guard on b1 and c0 alone let
    # 4,044 through, tangent designs near R1 = l whose reach is a sliver of about 1e-17 m
    public = public_design(l, f, r1, branch)
    if cancellation(l, f, r1, float.fromhex(public[0])) > ABOVE_ROUNDING:
        assert (public[3] == "") == found, (l, f, r1, branch)
        assert float.fromhex(public[1]) == pytest.approx(d_max if found else 0.0, rel=1e-7)


R1_PROBE = st.one_of(ELEMENT, st.sampled_from([0.0, 1e-320, -1e-320, math.nan, -math.inf]))


class TestHoistedChecks:
    """The design body, which takes l, f and branch as checked, agrees with the public route."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.3), ELEMENT, R1_PROBE, st.sampled_from([ORIGIN, TANGENT]),
           st.booleans())
    @example(0.88, 0.88, -1.0, TANGENT, False)  # l = f
    # l = f, where 1 - l*(1/f) rounds to -1.1e-16 rather than 0
    @example(0.05478167673755327, 0.05478167673755327, -1.0, ORIGIN, False)
    @example(0.020000000000000004, 0.02, -1.0, ORIGIN, False)  # c0 = 1 - l/f at rounding level
    @example(0.25, 0.5, -0.25, ORIGIN, False)  # R1 = l - f exactly
    @example(0.06, FLAT, -1.0, ORIGIN, False)
    @example(0.06, 0.88, FLAT, TANGENT, False)
    @example(0.06, FLAT, FLAT, ORIGIN, False)
    @example(0.06, 0.88, 1e-320, ORIGIN, False)  # r2 would be 0
    @example(0.06, 0.88, 0.0, ORIGIN, False)
    # all four roots on the written r2 round to 0.24999999931334105 m, and the exact reach is 0.25
    @example(0.25, 0.125, -6.866589600011646e-10, ORIGIN, False)
    def test_bodies_match_the_public_route(self, l, f, r1, branch, at_l_minus_f):
        # the design exists, with the same r2, exactly where connecting_r2 gives one; its
        # reach is the exact design's, and the generic reach's on r2 above rounding level
        if at_l_minus_f and math.isfinite(f):
            r1 = (l - f) or FLAT
        r2, d_max, ok, found = cavity._design(l, f, r1, branch, cavity._pick)
        public = public_design(l, f, r1, branch)
        assert ok is not isinstance(public, type), (l, f, r1, branch)
        if not ok:
            return
        assert bits(r2) == public[0]
        assert_matches_exact(d_max, found, oracles.exact_branch_reach(l, f, r1, branch), l, f)
        check_against_the_public_route(l, f, r1, branch, d_max, found)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.5, 20.0), st.floats(0.01, 0.3), ELEMENT, st.sampled_from([ORIGIN, TANGENT]),
           st.floats(-3.0, 3.0), st.floats(1e-6, 4.0))
    @example(5.0, 0.06, 0.88, ORIGIN, -1.5, 1.0)
    @example(5.0, 0.88, 0.88, TANGENT, -1.5, 1.0)  # l = f
    @example(5.0, 0.06, FLAT, ORIGIN, -1.5, 3.0)
    @example(3.0, 0.06, 0.88, TANGENT, -0.85, 0.05)  # around R1 = l - f = -0.82
    @example(3.0, 0.06, 0.88, ORIGIN, -1e-320, 2e-320)  # R1 = 0 inside a subnormal window
    @example(3.0, 0.06, 0.88, ORIGIN, 1e-320, 1e-320)  # a subnormal window: r2 would be 0
    # windows inside the band where 1/R1 overflows: no R1 there has a design
    @example(0.1, 0.06, 0.05, ORIGIN, 1e-320, 1e-320)
    @example(0.1, 0.06, 0.05, ORIGIN, -1e-320, 2e-320)
    # R1 = l/2 with a flat f: g1*g2 = 1 at d = 0, and its end is 0 to rounding
    @example(1.0, 0.1643842435639739, FLAT, ORIGIN, 0.0, 0.1643842435639739)
    def test_r1_range_is_where_the_design_reaches(self, target, l, f, branch, lo, width):
        # R1 inside and outside each returned interval: the design at R1 reaches (_design:
        # ok, found and d_max >= T; and the exact design, where ok) exactly where R1 is
        # inside, and the public route classes
        # it as _design does wherever |b1| is above rounding level and the stable set is not a
        # sliver.  R1 is drawn at eighths of each gap between the edges, l - f and 0, and
        # R1_GUARD ULPs of max(|e|, l) inside each end e; one whose exact reach is T to
        # rounding is left out
        window = (lo, lo + width)
        try:
            got = r1_range_for_distance(target, l, f, branch, window)
        except EmptyResultError:
            got = []
        marks = sorted({e for interval in [window, *got] for e in interval}
                       | {x for x in (l - f, 0.0) if window[0] < x < window[1]})
        for a, b in zip(marks, marks[1:]):
            inner = a + R1_GUARD * math.ulp(max(abs(a), l))
            outer = b - R1_GUARD * math.ulp(max(abs(b), l))
            r1s = [r1 for r1 in [a * (1 - k / 8) + b * k / 8 for k in range(1, 8)] + [inner, outer]
                   if inner <= r1 <= outer] or [0.5 * a + 0.5 * b]
            inside = any(x <= a and b <= y for x, y in got)
            for r1 in r1s:
                _, d_max, ok, found = cavity._design(l, f, r1, branch, cavity._pick)
                assert ok is not isinstance(public_design(l, f, r1, branch), type), r1
                if ok:
                    d0, d1 = oracles.exact_d0(l, f, r1), oracles.exact_d1(l, f)
                    exact, exact_found = oracles.exact_branch_reach(l, f, r1, branch)
                    if abs(exact - Fraction(target)) <= R1_GUARD * EPS * (exact + abs(d1)):
                        continue  # the reach is T to rounding
                    assert inside == (exact_found and exact >= target), r1
                assert inside == (ok and found and d_max >= target), (r1, d_max, ok)
                # the stable set is 2*|d0 - d1| wide, which is rounding for the generic reach
                # at |R1| below about 1e-6*c0^2*d_max
                if ok and 2 * abs(d0 - d1) > ABOVE_ROUNDING * (abs(d0) + abs(d1)):
                    check_against_the_public_route(l, f, r1, branch, d_max, found)

    def test_r1_range_runs_no_design_and_no_root_scan(self, monkeypatch):
        # the edges are thresholds inverted in closed form: no R1 is tried
        def refuse(*args):
            raise AssertionError("called")

        monkeypatch.setattr(cavity, "_design", refuse)
        monkeypatch.setattr(cavity, "_pieces", refuse)
        (lo, hi), = r1_range_for_distance(5.0, 0.06, 0.88, ORIGIN, (-1.5, -0.5))
        assert lo == pytest.approx(-1.3077173579109063, rel=1e-12) and hi == 0.06 - 0.88


R1_GUARD = 64


# ---------------------------------------------------------------------------
# The closed-form reach of a connected-branch design against the exact design

# d_max is d1, d0, 2*d1 - d0 or 2*d0 - d1, with d1 = l*f/(l - f) and d0 = f*(r1 - l)/(r1 + f - l)
# (cavity._design); its error is measured in ULPs of exact d_max + |d1|, which bounds both
# terms (the sum cancels where the stable set ends near d = 0).  Over 200,000 random designs,
# half within 64 ULPs of R1 = l - f, the largest error was 6.2 ULPs; counting the roundings
# of d1 (3) and d0 (5) in 2*d1 - d0 bounds it by 16.
REACH_ULPS = 16


def d_touch(l, f) -> Fraction:
    """|-l/c0|, exactly: the distance where c0*g1 = 1 on either branch."""
    return abs(Fraction(l) / (1 - Fraction(l) * oracles._exact_inv(f)))


def assert_matches_exact(d_max: float, found: bool, exact: tuple, l: float, f: float) -> None:
    """found is the exact design's, and then d_max within the budget of its d_max.

    Where the exact stable set ends at d = 0 itself (a tie, as at R1 = l on the
    tangent branch, where c0*g1 starts at 0 and falls), the computed end is
    within the budget of 0 and its sign, so the flag, is rounding: there
    either flag passes.
    """
    exact_d, exact_found = exact
    scale = exact_d + d_touch(l, f)
    if scale >= Fraction(2) ** 1023:  # the budget is past the float range, and so may d_max be
        assert found == exact_found
        return
    slack = REACH_ULPS * math.ulp(float(scale))
    if found != exact_found:
        assert abs(d_max) <= slack and exact_d <= slack, (d_max, float(exact_d))
    elif found:
        assert abs(Fraction(d_max) - exact_d) <= slack, (d_max, float(exact_d))


@st.composite
def branch_designs(draw):
    """(l, f, branch, R1 column): ordinary R1 and R1 within 64 ULPs of l - f."""
    l, f = draw(st.floats(0.01, 0.3)), draw(ELEMENT)

    near = st.integers(-64, 64).map(lambda k: stepped(l - f, k) or FLAT)
    r1 = ELEMENT if not math.isfinite(f) else st.one_of(ELEMENT, near)
    return l, f, draw(st.sampled_from([ORIGIN, TANGENT])), draw(st.lists(r1, min_size=1, max_size=20))


SUBNORMAL_SLOPE = (0.06, 1e300, ORIGIN, [-1.0000000000000002e300])  # b1 = -1.5e-316


class TestBranchReach:
    @settings(max_examples=300, deadline=None)
    @given(branch_designs())
    @example((0.06, 0.88, ORIGIN, [NEAR_L_MINUS_F, -0.82, -1.0, -1.5, 0.0]))
    @example((0.06, 0.88, TANGENT, [NEAR_L_MINUS_F, -0.82, -1.0, -1.5, 0.0]))
    @example(SUBNORMAL_SLOPE)  # the exact d_max is past the float range: it reads inf
    @example((0.06, 1e300, TANGENT, [-9.999999999999998e299]))
    @example((0.3, 0.1, ORIGIN, [-1.0, 0.5]))  # f < l: origin designs rising to u = 1
    # ties at d = 0: c0*g1 starts at 0 (R1 = l) and at 2 (f = FLAT, R1 = -l) on the tangent branch
    @example((0.125, -5.0, TANGENT, [0.125]))
    @example((0.1, FLAT, TANGENT, [0.1, -0.1]))
    # f < l and subnormal slopes: m overflows; the second design's r2 would be -inf
    @example((1e300, 5e299, ORIGIN, [4.999999999999999e299, 5.000000000000001e299]))
    def test_flags_and_d_max_agree_with_the_exact_design(self, design):
        l, f, branch, r1s = design
        rows = [cavity._design(l, f, r1, branch, cavity._pick) for r1 in r1s]
        with np.errstate(all="ignore"):
            columns = cavity._design(l, f, np.array(r1s), branch, np.where)
        for i, (r1, (r2, d_max, ok, found)) in enumerate(zip(r1s, rows)):
            row = (bits(r2), bits(d_max), ok, found)
            assert row == (bits(columns[0][i]), bits(columns[1][i]), columns[2][i], columns[3][i])
            if not ok:  # where connecting_r2 refuses an exact design, R1 is within rounding of l - f
                assert (r1 == 0.0 or oracles.exact_branch_reach(l, f, r1, branch) is None
                        or abs(r1 - (l - f)) <= 1e-12 * abs(l - f)), r1
                continue
            assert_matches_exact(d_max, found, oracles.exact_branch_reach(l, f, r1, branch), l, f)

    def test_an_overflowing_reach_is_flagged_and_reaches(self):
        # a subnormal slope: the reach of the exact design lies past the float range
        l, f, branch, (r1,) = SUBNORMAL_SLOPE
        assert oracles.exact_branch_reach(l, f, r1, branch)[0] > Fraction(2) ** 1024
        for rows_max in (math.inf, -1):  # rows, then columns
            with patch.object(explorer, "ROWS_MAX", rows_max):
                ds = max_distance_vs_r1(l, f, [r1], branch)
            assert ds.flags == ["overflow"] and ds.columns["d_max_m"] == [0.0]
        window = (math.nextafter(r1, -math.inf), math.nextafter(r1, 0.0))  # r1 alone inside
        assert r1_range_for_distance(1e300, l, f, branch, window) == [window]
