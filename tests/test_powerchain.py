import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resbeam import (
    GainParams,
    PvParams,
    UndefinedAtZeroError,
    UnitError,
    beam_power,
    end_to_end,
    gain_to_beam_coefficient,
    pv_efficiency,
    pv_output,
    reference_defaults,
    stored_power,
    thresholds,
    transmission_efficiency,
)
from resbeam.columns import gain_to_beam_column, ladder_columns
from resbeam.powerchain import ladder_at

import oracles

LAM = 1.064e-6
L = 0.06
GAIN = GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=0.88)
PV = PvParams(a1=0.3487, b1=-1.535)


def link(a, gain=GAIN, pv=PV):
    """The reference bundle with aperture a and the given gain and PV stages."""
    return replace(reference_defaults(), aperture_radius=a, gain=gain, pv=pv)


def aperture_for(target_f, d=1.0, gain=GAIN):
    """Test-side algebraic inversion: the aperture making f(d) == target_f."""
    return oracles.aperture_for_coefficient(
        target_f, d, gain.r_out, gain.m_overlap, gain.c, LAM, L
    )


class TestParamValidation:
    def test_gain_ranges(self):
        with pytest.raises(ValueError):
            replace(GAIN, eta_stored=1.5)
        with pytest.raises(ValueError):
            replace(GAIN, r_out=1.0)
        with pytest.raises(ValueError):
            replace(GAIN, m_overlap=0.0)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                replace(GAIN, c=c)

    def test_pv_ranges(self):
        with pytest.raises(ValueError):
            PvParams(a1=1.2, b1=0.0)
        for b1 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                PvParams(a1=0.3, b1=b1)


class TestStoredPower:
    def test_reference_efficiency(self):
        assert stored_power(100.0, GAIN) == pytest.approx(28.49, rel=1e-12)

    def test_zero_input(self):
        assert stored_power(0.0, GAIN) == 0.0

    def test_linear_point(self):
        assert stored_power(55.0, GAIN) == pytest.approx(15.6695, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stored_power(-1.0, GAIN)
        # every stage input must be a finite power, not only stored_power's
        stages = (
            lambda p: stored_power(p, GAIN),
            lambda p: beam_power(p, 1.0, link(7.855e-4)),
            lambda p: pv_output(p, PV),
            lambda p: end_to_end(p, 1.0, link(7.855e-4)),
        )
        for stage in stages:
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    stage(bad)


class TestGainToBeamCoefficient:
    def test_zero_loss_limit(self):
        # aperture large enough that delta00 underflows to 0
        fd = gain_to_beam_coefficient(1.0, link(0.5))
        assert fd == pytest.approx(0.9986404407570026, rel=1e-12)

    def test_at_half_loss(self):
        a = math.sqrt(-math.log(0.487) * LAM * (L + 1.0) / (2 * math.pi))
        fd = gain_to_beam_coefficient(1.0, link(a))
        assert fd == pytest.approx(0.20763280001308893, rel=1e-9)

    def test_vanishes_as_mirror_closes(self):
        shiny = GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=1 - 1e-9)
        a = math.sqrt(-math.log(0.487) * LAM * (L + 1.0) / (2 * math.pi))
        assert gain_to_beam_coefficient(1.0, link(a, gain=shiny)) < 1e-8

    def test_strictly_decreasing_in_distance(self):
        a = 0.8e-3
        fds = [gain_to_beam_coefficient(d, link(a)) for d in np.linspace(0.1, 10, 40)]
        assert all(b < a_ for a_, b in zip(fds, fds[1:]))

    def test_rejects_non_finite_distance(self):
        # d = inf used to give f = 0, so an all-zero ladder and finite thresholds
        p = link(7.855e-4)
        stages = (
            lambda d: gain_to_beam_coefficient(d, p),
            lambda d: beam_power(10.0, d, p),
            lambda d: transmission_efficiency(10.0, d, p),
            lambda d: end_to_end(10.0, d, p),
            lambda d: thresholds(d, p),
            lambda d: gain_to_beam_column(np.array([1.0, d]), p),
        )
        for stage in stages:
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(UnitError, match="d: must be finite"):
                    stage(bad)


class TestColumnKernels:
    """The column stages equal the scalar stages bit for bit, element by element."""

    @given(
        d=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
        a=st.floats(1e-5, 5e-3),
        r_out=st.floats(0.01, 0.999),
    )
    def test_coefficient_column_matches_scalar(self, d, a, r_out):
        p = link(a, gain=GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=r_out))
        col = gain_to_beam_column(np.array(d), p).tolist()
        assert col == [gain_to_beam_coefficient(x, p) for x in d]

    @given(
        p_in=st.lists(st.floats(0.0, 1e4) | st.just(-0.0), min_size=1, max_size=40),
        fd=st.floats(0.0, 1.0),
        c=st.floats(-50.0, 5.0) | st.just(-0.0),
        b1=st.floats(-5.0, 5.0) | st.just(-0.0),
    )
    def test_ladder_columns_match_ladder_at(self, p_in, fd, c, b1):
        p = link(7.855e-4, gain=replace(GAIN, c=c), pv=replace(PV, b1=b1))
        cols = ladder_columns(np.array(p_in), fd, p)
        for i, x in enumerate(p_in):
            state, eff = ladder_at(x, fd, p)
            want = (state.p_stored, state.p_beam, state.p_out, eff.eta_trans, eff.eta_all)
            got = tuple(float(c[i]) for c in cols)
            # repr tells -0.0 from 0.0, which JSON output keeps
            assert list(map(repr, got)) == list(map(repr, want))

    def test_columns_reject_bad_drive(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(UnitError, match="p_in: must be finite"):
                ladder_columns(np.array([1.0, bad]), 0.5, link(7.855e-4))


class TestBeamPower:
    def test_above_threshold(self):
        a = aperture_for(0.8)
        assert beam_power(30.0, 1.0, link(a)) == pytest.approx(18.36, rel=1e-9)

    def test_below_threshold_clamps(self):
        a = aperture_for(0.8)
        # lasing threshold is -c/f(d) = 7.05 W
        assert beam_power(5.0, 1.0, link(a)) == 0.0
        assert beam_power(7.04, 1.0, link(a)) == 0.0
        assert beam_power(7.06, 1.0, link(a)) > 0.0

    def test_zero_stored(self):
        assert beam_power(0.0, 1.0, link(0.8e-3)) == 0.0


class TestTransmissionEfficiency:
    def test_reference_point(self):
        a = aperture_for(0.8)
        assert transmission_efficiency(30.0, 1.0, link(a)) == pytest.approx(
            0.612, rel=1e-9
        )

    def test_below_threshold_zero(self):
        a = aperture_for(0.8)
        assert transmission_efficiency(5.0, 1.0, link(a)) == 0.0

    def test_asymptote_is_f(self):
        a = aperture_for(0.8)
        eta = transmission_efficiency(1e9, 1.0, link(a))
        assert eta == pytest.approx(0.8, rel=1e-8)

    def test_undefined_at_zero(self):
        with pytest.raises(UndefinedAtZeroError):
            transmission_efficiency(0.0, 1.0, link(0.8e-3))


class TestPvStage:
    def test_output_above_threshold(self):
        assert pv_output(10.0, PV) == pytest.approx(1.952, rel=1e-12)

    def test_threshold_point(self):
        th = 1.535 / 0.3487
        assert th == pytest.approx(4.402064812159449, rel=1e-12)
        assert pv_output(th - 1e-9, PV) == 0.0
        assert pv_output(th + 1e-6, PV) > 0.0

    def test_zero_input(self):
        assert pv_output(0.0, PV) == 0.0

    def test_efficiency_reference(self):
        assert pv_efficiency(19.5, PV) == pytest.approx(0.2699820512820513, rel=1e-12)

    def test_efficiency_asymptote(self):
        assert pv_efficiency(1e9, PV) == pytest.approx(0.3487, abs=1e-8)

    def test_efficiency_below_threshold(self):
        assert pv_efficiency(2.0, PV) == 0.0

    def test_efficiency_undefined_at_zero(self):
        with pytest.raises(UndefinedAtZeroError):
            pv_efficiency(0.0, PV)


class TestEndToEnd:
    def test_all_zero_at_zero_input(self):
        state, eff = end_to_end(0.0, 1.0, link(0.8e-3))
        assert (state.p_in, state.p_stored, state.p_beam, state.p_out) == (0, 0, 0, 0)
        assert eff.eta_all == 0.0

    def test_reference_55w_point(self):
        a = aperture_for(0.824)
        state, _ = end_to_end(54.992296215591615, 1.0, link(a))
        assert state.p_out == pytest.approx(1.0, rel=1e-9)

    def test_closed_form_composition_identity(self):
        rng = np.random.RandomState(21)
        for _ in range(50):
            a = float(rng.uniform(3e-4, 2e-3))
            d = float(rng.uniform(0.1, 8.0))
            p_in = float(rng.uniform(0.0, 200.0))
            state, _ = end_to_end(p_in, d, link(a))
            fd = gain_to_beam_coefficient(d, link(a))
            closed = PV.a1 * fd * GAIN.eta_stored * p_in + PV.a1 * GAIN.c + PV.b1
            if state.p_beam > 0 and state.p_out > 0:
                assert state.p_out == pytest.approx(closed, abs=1e-12, rel=1e-12)
            else:
                assert state.p_out == 0.0

    def test_efficiency_product_identity(self):
        a = aperture_for(0.824)
        for p_in in (60.0, 100.0, 150.0):
            _, eff = end_to_end(p_in, 1.0, link(a))
            assert eff.eta_all == pytest.approx(
                eff.eta_stored * eff.eta_trans * eff.eta_pv, abs=1e-12
            )

    def test_eta_all_reference(self):
        a = aperture_for(0.824)
        _, eff = end_to_end(100.0, 1.0, link(a))
        assert eff.eta_all == pytest.approx(0.04684329512, rel=1e-9)

    def test_clamp_sanity(self):
        rng = np.random.RandomState(22)
        for _ in range(100):
            p_in = float(rng.uniform(0.0, 60.0))
            d = float(rng.uniform(0.0, 20.0))
            a = float(rng.uniform(0.0, 3e-3))
            state, eff = end_to_end(p_in, d, link(a))
            assert state.p_stored >= 0 and state.p_beam >= 0 and state.p_out >= 0
            assert 0 <= eff.eta_trans <= 1 and 0 <= eff.eta_pv <= 1 and 0 <= eff.eta_all <= 1

    def test_output_nonincreasing_in_distance(self):
        a = aperture_for(0.824)
        outs, etas = [], []
        for d in np.linspace(0.5, 8.0, 40):
            state, eff = end_to_end(100.0, float(d), link(a))
            outs.append(state.p_out)
            etas.append(eff.eta_all)
        assert all(b <= q for q, b in zip(outs, outs[1:]))
        assert all(b <= q for q, b in zip(etas, etas[1:]))

    def test_linearity_above_threshold(self):
        a = aperture_for(0.824)
        pts = []
        for p_in in (60.0, 80.0, 100.0):
            state, _ = end_to_end(p_in, 1.0, link(a))
            assert state.p_out > 0
            pts.append((p_in, state.p_out))
        slope01 = (pts[1][1] - pts[0][1]) / (pts[1][0] - pts[0][0])
        slope12 = (pts[2][1] - pts[1][1]) / (pts[2][0] - pts[1][0])
        assert slope01 == pytest.approx(slope12, abs=1e-9)


class TestThresholds:
    def test_reference_values(self):
        a = aperture_for(0.824)
        th = thresholds(1.0, link(a))
        assert th.p_beam == pytest.approx(4.402064812159449, rel=1e-12)
        assert th.p_stored == pytest.approx(12.186971859416808, rel=1e-9)
        assert th.p_in == pytest.approx(42.776314002867, rel=1e-9)

    def test_no_pv_offset(self):
        th = thresholds(1.0, link(0.8e-3, pv=PvParams(a1=0.3487, b1=0.0)))
        assert th.p_beam == 0.0

    def test_threshold_grows_with_distance(self):
        a = 0.8e-3
        th1 = thresholds(1.0, link(a))
        th5 = thresholds(5.0, link(a))
        assert th5.p_in > th1.p_in

    def test_output_flips_exactly_at_threshold(self):
        a = aperture_for(0.824)
        th = thresholds(1.0, link(a))
        lo, _ = end_to_end(th.p_in - 1e-6, 1.0, link(a))
        hi, _ = end_to_end(th.p_in + 1e-6, 1.0, link(a))
        assert lo.p_out == 0.0
        assert hi.p_out > 0.0
