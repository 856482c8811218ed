import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resbeam import (
    FLAT,
    ORIGIN,
    TANGENT,
    CavityGeometry,
    DegenerateLineError,
    NoSolutionError,
    NoStableRegionError,
    UnstableConfigurationError,
    UnboundedStableRangeError,
    UnitError,
    WrongSignSlopeError,
    beam_radii,
    connecting_r2,
    effective_length,
    g_parameters,
    is_stable,
    max_transmission_distance,
    stability_line,
    stable_distance_intervals,
)
from resbeam import cavity, columns

import oracles

LAM = 1.064e-6


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

    def test_degenerate_when_g1_constant(self):
        # dyadic values so l - r1 - f = 0 holds exactly in binary floats
        with pytest.raises(DegenerateLineError):
            stability_line(CavityGeometry(l=0.25, f=0.5, r1=-0.25, r2=5.0))
        with pytest.raises(DegenerateLineError):
            stability_line(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=5.0))

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

    def test_no_stable_region(self):
        with pytest.raises(NoStableRegionError):
            max_transmission_distance(CavityGeometry(l=0.06, f=FLAT, r1=FLAT, r2=FLAT))


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

ELEMENT = st.one_of(st.floats(-5.0, -0.02), st.floats(0.02, 5.0), st.just(FLAT))


@st.composite
def geometries(draw):
    """Free geometries, connected-branch designs and designs a few ULPs from R1 = l - f."""
    l, f, r1 = draw(st.floats(0.01, 0.3)), draw(ELEMENT), draw(ELEMENT)
    if math.isfinite(f) and draw(st.booleans()):
        r1 = l - f  # g1 stops depending on d here; rounding decides the neighbours
        steps = draw(st.integers(-6, 6))
        for _ in range(abs(steps)):
            r1 = math.nextafter(r1, math.copysign(math.inf, steps))
        r1 = r1 or FLAT
    branch = draw(st.sampled_from([None, ORIGIN, TANGENT]))  # tangent: zero discriminant
    try:
        r2 = connecting_r2(l, f, r1, branch) if branch else draw(ELEMENT)
        return CavityGeometry(l=l, f=f, r1=r1, r2=r2)
    except (NoSolutionError, WrongSignSlopeError, UnitError):
        return CavityGeometry(l=l, f=f, r1=r1, r2=draw(ELEMENT))


def columns_of(geoms):
    return [np.array([getattr(g, k) for g in geoms]) for k in ("l", "f", "r1", "r2")]


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
        reach = columns.max_distance_columns(*columns_of(geoms))
        for i, g in enumerate(geoms):
            try:
                md = max_transmission_distance(g)
                want = (columns.REACH_OK, bits(md.d_max), md.contiguous)
            except NoStableRegionError:
                want = (columns.REACH_NO_STABLE_REGION, bits(0.0), False)
            except UnboundedStableRangeError:
                want = (columns.REACH_UNBOUNDED, bits(0.0), False)
            got = (int(reach.status[i]), bits(reach.d_max[i]), bool(reach.contiguous[i]))
            assert got == want, g

    @settings(max_examples=200, deadline=None)
    @given(geometries(), st.lists(st.floats(0.0, 60.0), max_size=20), st.integers(0, 3))
    def test_stability_columns_match_scalar(self, g, ds, ulps):
        # the boundary roots and their neighbours, where g1*g2 meets 0 or 1
        for c in cavity._boundary_candidates(g):
            ds += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
            ds += [c + k * math.ulp(c) for k in (-ulps, ulps)]
        d = np.array(ds + [0.0])
        L, g1, g2 = columns.g_columns(g.l, g.f, g.r1, g.r2, d)
        stable = columns.stable_columns(g.l, g.f, g.r1, g.r2, d)
        for i, x in enumerate(d.tolist()):
            der = g_parameters(g, x)
            want = (bits(der.L), bits(der.g1), bits(der.g2))
            assert (bits(L[i]), bits(g1[i]), bits(g2[i])) == want
            assert bool(stable[i]) is is_stable(g, x)

    @settings(max_examples=200, deadline=None)
    @given(geometries(), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20),
           st.lists(st.floats(0.0, 1.0), max_size=20), st.floats(2e-7, 2e-6))
    def test_radii_columns_match_beam_radii(self, g, ds, fractions, wavelength):
        # random distances are mostly unstable, so also take points inside the stable intervals
        ivals = stable_distance_intervals(g, 30.0).intervals
        if ivals:
            ds += [lo + t * (hi - lo) for t, (lo, hi) in zip(fractions, ivals * len(fractions))]
        d = np.array(ds)
        stable, radii = columns.beam_radii_columns(g, d, wavelength)
        for i, x in enumerate(ds):
            try:
                r = beam_radii(g, x, wavelength)
            except UnstableConfigurationError:
                assert not stable[i] and all(w[i] == 0.0 for w in radii)
                continue
            assert stable[i]
            assert [bits(w[i]) for w in radii] == [bits(r.w_gain), bits(r.w_m1), bits(r.w_m2)]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 0.3), ELEMENT, st.lists(ELEMENT, min_size=1, max_size=20),
           st.sampled_from([ORIGIN, TANGENT]))
    @example(0.25, 0.5, [-0.25, -1.0], ORIGIN)  # l - r1 - f = 0 exactly
    @example(0.88, 0.88, [-1.0], TANGENT)  # l = f
    # l - r1 - f is exactly 0 while phi + c0/r1 rounds to -8.9e-16
    @example(0.2549, 0.2216, [0.2549 - 0.2216], ORIGIN)
    def test_connecting_r2_columns_match_scalar(self, l, f, r1s, branch):
        r2, solvable = columns.connecting_r2_columns(l, f, np.array(r1s), branch)
        for i, r1 in enumerate(r1s):
            try:
                want = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch)).r2
            except (NoSolutionError, WrongSignSlopeError, UnitError):
                assert not solvable[i] and r2[i] == 0.0
                continue
            assert solvable[i] and bits(r2[i]) == bits(want)
