import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from resbeam import (
    associated_laguerre,
    fundamental_loss_vs_distance,
    mode_diffraction_loss,
)
from resbeam import diffraction
from resbeam.diffraction import MAX_MODE_ORDER, _gauss_laguerre

import oracles

RATIOS = (0.05, 0.3, 0.7, 1.0, 1.5, 2.2, 3.0, 4.5, 6.0)


class TestAssociatedLaguerre:
    def test_order_zero_is_one(self):
        for m in (0, 1, 5):
            for x in (0.0, 1.7, 42.0):
                assert associated_laguerre(0, m, x) == 1.0

    def test_order_one(self):
        # L_1^m(x) = 1 + m - x
        assert associated_laguerre(1, 2, 3.0) == 0.0
        assert associated_laguerre(1, 0, 0.5) == 0.5

    def test_recurrence_value(self):
        # L_2^0(x) = (x^2 - 4x + 2)/2
        assert associated_laguerre(2, 0, 2.0) == pytest.approx(-1.0, rel=1e-14)

    def test_matches_scipy(self):
        rng = np.random.RandomState(3)
        for _ in range(60):
            n = int(rng.randint(0, 13))
            m = int(rng.randint(0, 9))
            x = float(rng.uniform(0.0, 40.0))
            ref = eval_genlaguerre(n, m, x)
            assert associated_laguerre(n, m, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_array_argument(self):
        x = np.linspace(0.0, 10.0, 7)
        vals = associated_laguerre(3, 1, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(eval_genlaguerre(3, 1, 0.0), rel=1e-12)

    def test_rejects_negative_orders(self):
        with pytest.raises(ValueError):
            associated_laguerre(-1, 0, 1.0)


class TestGaussLaguerreNodes:
    def test_match_numpy_for_every_order_in_use(self):
        # the mode losses up to MAX_MODE_ORDER take k = (m + 2n) // 2 + 1 <= 61 nodes
        for k in range(1, (3 * MAX_MODE_ORDER) // 2 + 2):
            nodes, weights = np.polynomial.laguerre.laggauss(k)
            got_nodes, got_weights = zip(*_gauss_laguerre(k))
            assert got_nodes == pytest.approx(nodes.tolist(), rel=1e-12, abs=0), k
            assert got_weights == pytest.approx(weights.tolist(), rel=1e-10, abs=0), k


class TestModeDiffractionLoss:
    def test_fundamental_matches_closed_form(self):
        # delta_00 = exp(-2 a^2 / w^2), quadrature vs analytic
        for ratio in (0.1, 0.5, 1.0, 2.0, 3.0):
            loss = mode_diffraction_loss(0, 0, ratio, 1.0)
            assert loss == pytest.approx(math.exp(-2.0 * ratio**2), abs=1e-8)

    def test_unit_ratio_value(self):
        assert mode_diffraction_loss(0, 0, 1.0, 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-9
        )

    def test_zero_aperture_blocks_everything(self):
        for m, n in ((0, 0), (1, 2), (3, 1)):
            assert mode_diffraction_loss(m, n, 0.0, 1.0) == 1.0

    def test_huge_aperture_passes_everything(self):
        for m, n in ((0, 0), (2, 2)):
            assert mode_diffraction_loss(m, n, 50.0, 1.0) <= 1e-12
        # far past the cut-off, where x^m would overflow and give NaN
        with np.errstate(over="raise", invalid="raise"):
            assert mode_diffraction_loss(5, 5, 1e6, 1.0) == 0.0
            assert mode_diffraction_loss(MAX_MODE_ORDER, MAX_MODE_ORDER, 1e300, 1e-6) == 0.0

    @pytest.mark.parametrize("m", range(13))
    @pytest.mark.parametrize("n", range(13))
    def test_matches_quadrature_reference(self, m, n):
        for ratio in RATIOS:
            got = mode_diffraction_loss(m, n, ratio, 1.0)
            want = oracles.quadrature_mode_loss(m, n, ratio, 1.0)
            assert abs(got - want) < 1e-10, (m, n, ratio, got, want)

    def test_order_range_edge(self):
        top = MAX_MODE_ORDER
        for m, n in ((top, 0), (0, top), (top, top)):
            cutoff = math.sqrt(2.0 * n + m + 1.0) + 8.0
            for ratio in (0.5, 2.0, 6.0, 0.5 * cutoff, 0.99 * cutoff):
                got = mode_diffraction_loss(m, n, ratio, 1.0)
                want = oracles.quadrature_mode_loss(m, n, ratio, 1.0)
                assert math.isfinite(got)
                assert abs(got - want) < 1e-10, (m, n, ratio, got, want)
        for m, n in ((top + 1, 0), (0, top + 1), (-1, 0), (0, -1), (1.5, 0), (0, 2.5)):
            with pytest.raises(ValueError):
                mode_diffraction_loss(m, n, 1.0, 1.0)

    def test_nonincreasing_in_aperture(self):
        apertures = np.linspace(0.0, 4.0, 30)
        losses = [mode_diffraction_loss(1, 2, float(a), 1.0) for a in apertures]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_bounds(self):
        rng = np.random.RandomState(4)
        for _ in range(40):
            m = int(rng.randint(0, 5))
            n = int(rng.randint(0, 5))
            a = float(rng.uniform(0.0, 5.0))
            w = float(rng.uniform(0.2, 3.0))
            loss = mode_diffraction_loss(m, n, a, w)
            assert 0.0 <= loss <= 1.0

    def test_higher_modes_lose_more(self):
        # wider transverse profiles clip harder on the same aperture
        for a in (0.5, 1.0, 2.0):
            base = mode_diffraction_loss(0, 0, a, 1.0)
            for m, n in ((0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (2, 3)):
                assert mode_diffraction_loss(m, n, a, 1.0) >= base - 1e-12

    def test_spot_scaling_invariance(self):
        # loss depends only on a/w
        l1 = mode_diffraction_loss(1, 1, 1.0, 1.0)
        l2 = mode_diffraction_loss(1, 1, 0.003, 0.003)
        assert l1 == pytest.approx(l2, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mode_diffraction_loss(0, 0, 1.0, 0.0)
        with pytest.raises(ValueError):
            mode_diffraction_loss(0, 0, -1.0, 1.0)
        for a, w in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                     (1.0, -math.inf)):
            with pytest.raises(ValueError):
                mode_diffraction_loss(0, 0, a, w)
        # the distance-dependent fundamental-mode loss checks its aperture the same way
        for a in (-1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                fundamental_loss_vs_distance(a, 1.064e-6, 0.06, 1.0)



# The per-node route of the mode loss as it was before the per-order table: the
# recurrence with int k and int coefficients, math.factorial ints and the cut-off
# recomputed per call.  The library must give these bits exactly.
def reference_laguerre(n, m, x):
    prev = x * 0.0 + 1.0
    if n == 0:
        return prev
    cur = 1.0 + m - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + m - x) * cur - (k + m) * prev) / (k + 1.0)
    return cur


@functools.cache
def reference_nodes(k):
    pairs = []
    for i in range(k):
        if i == 0:
            z = 3.0 / (1.0 + 2.4 * k)
        elif i == 1:
            z += 15.0 / (1.0 + 2.5 * k)
        else:
            z += (1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) * (z - pairs[-2][0])
        for _ in range(100):
            p1 = reference_laguerre(k, 0, z)
            step = z * p1 / (k * (p1 - reference_laguerre(k - 1, 0, z)))
            z -= step
            if abs(step) <= 1e-13 * z:
                break
        pairs.append((z, z / (k * reference_laguerre(k - 1, 0, z)) ** 2))
    return tuple(pairs)


def reference_loss(m, n, a, spot):
    if a == 0.0:
        return 1.0
    u = a / spot
    if u >= math.sqrt(2.0 * n + m + 1.0) + 8.0:
        return 0.0
    t = 2.0 * u * u
    tail = 0.0
    for node, weight in reference_nodes((m + 2 * n) // 2 + 1):
        x = node + t
        tail += weight * (x**m * reference_laguerre(n, m, x) ** 2)
    tail *= math.exp(-t)
    return min(1.0, max(0.0, tail * math.factorial(n) / math.factorial(n + m)))


def cut_off(m, n):
    return math.sqrt(2.0 * n + m + 1.0) + 8.0


@st.composite
def mode_draws(draw):
    """(m, n, a, spot): any checked order, a/spot across 0 ... the cut-off."""
    m, n = draw(st.integers(0, MAX_MODE_ORDER)), draw(st.integers(0, MAX_MODE_ORDER))
    spot = draw(st.floats(1e-4, 1e-2))
    return m, n, draw(st.floats(0.0, cut_off(m, n))) * spot, spot


class TestBitsAgainstThePerNodeRoute:
    @settings(max_examples=300, deadline=None)
    @given(mode_draws())
    @example((0, 0, 0.0, 1e-3))
    @example((3, 7, math.nextafter(cut_off(3, 7), 0.0), 1.0))
    @example((3, 7, math.nextafter(cut_off(3, 7), math.inf), 1.0))
    @example((MAX_MODE_ORDER, MAX_MODE_ORDER, 1.0, 1.0))
    @example((MAX_MODE_ORDER, MAX_MODE_ORDER, math.nextafter(cut_off(40, 40), 0.0), 1.0))
    def test_mode_loss_and_laguerre_are_the_reference_bits(self, draw):
        m, n, a, spot = draw
        assert mode_diffraction_loss(m, n, a, spot) == reference_loss(m, n, a, spot)
        u = a / spot
        xs = [0.0, u, 2.0 * u * u, cut_off(m, n), 2.0 * u * u + reference_nodes(1)[0][0]]
        for x in xs:
            assert associated_laguerre(n, m, x) == reference_laguerre(n, m, x), x
        got, want = associated_laguerre(n, m, np.array(xs)), reference_laguerre(n, m, np.array(xs))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_nodes_are_the_reference_bits(self):
        for k in range(1, (3 * MAX_MODE_ORDER) // 2 + 2):
            assert _gauss_laguerre(k) == reference_nodes(k), k

    def test_an_unbounded_order_leaves_no_cache_entry(self):
        def sizes():
            return (diffraction._mode_table.cache_info().currsize,
                    diffraction._gauss_laguerre.cache_info().currsize)

        before = sizes()
        assert associated_laguerre(10**4, 0, 0.5) == reference_laguerre(10**4, 0, 0.5)
        assert sizes() == before


class TestFundamentalLossVsDistance:
    def test_reference_point(self):
        loss = fundamental_loss_vs_distance(0.8e-3, 1.064e-6, 0.06, 1.0)
        assert loss == pytest.approx(0.028284719444406265, rel=1e-12)
        # exponent 2*pi*a^2/(lambda*(l+d))
        expo = 2 * math.pi * (0.8e-3) ** 2 / (1.064e-6 * 1.06)
        assert expo == pytest.approx(3.565433569118789, rel=1e-12)

    def test_long_distance_limit(self):
        assert fundamental_loss_vs_distance(0.8e-3, 1.064e-6, 0.06, 1e9) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_large_aperture_limit(self):
        assert fundamental_loss_vs_distance(1.0, 1.064e-6, 0.06, 1.0) == 0.0
        # a^2 overflows to inf here, and the loss reads 0 rather than raising
        assert fundamental_loss_vs_distance(1e200, 1.064e-6, 0.06, 1.0) == 0.0

    def test_strictly_increasing_in_distance(self):
        d = np.linspace(0.1, 30.0, 50)
        losses = [fundamental_loss_vs_distance(0.8e-3, 1.064e-6, 0.06, float(x)) for x in d]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_bounds(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            a = float(rng.uniform(0.0, 0.01))
            d = float(rng.uniform(0.0, 50.0))
            loss = fundamental_loss_vs_distance(a, 1.064e-6, 0.06, d)
            assert 0.0 <= loss <= 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            fundamental_loss_vs_distance(1e-3, 0.0, 0.06, 1.0)
        with pytest.raises(ValueError):
            fundamental_loss_vs_distance(1e-3, 1.064e-6, 0.0, 0.0)
        # an infinite wavelength or distance would read as no loss at all
        for wavelength, d in ((math.inf, 1.0), (1.064e-6, math.inf), (1.064e-6, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                fundamental_loss_vs_distance(1e-3, wavelength, 0.06, d)
