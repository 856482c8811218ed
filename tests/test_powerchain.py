import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from resbeam import (
    EfficiencyBreakdown,
    GainParams,
    PowerState,
    PvParams,
    UndefinedAtZeroError,
    UnitError,
    UnreachableTargetError,
    beam_power,
    end_to_end,
    gain_to_beam_coefficient,
    pv_efficiency,
    pv_output,
    reference_defaults,
    required_input_power,
    stored_power,
    thresholds,
    transmission_efficiency,
)
from resbeam.explorer import _column_kit
from resbeam.powerchain import _ladder, ladder_at

import oracles

LAM = 1.064e-6
L = 0.06
GAIN = GainParams(eta_stored=0.2849, m_overlap=1.0, c=-5.64, r_out=0.88)
PV = PvParams(a1=0.3487, b1=-1.535)


def link(a, gain=GAIN, pv=PV):
    """The reference bundle with aperture a and the given gain and PV stages."""
    return reference_defaults()._replace(aperture_radius=a, gain=gain, pv=pv)


def aperture_for(target_f, d=1.0, gain=GAIN):
    """Test-side algebraic inversion: the aperture making f(d) == target_f."""
    return oracles.aperture_for_coefficient(
        target_f, d, gain.r_out, gain.m_overlap, gain.c, LAM, L
    )


class TestParamValidation:
    def test_gain_ranges(self):
        with pytest.raises(ValueError):
            GAIN._replace(eta_stored=1.5)
        with pytest.raises(ValueError):
            GAIN._replace(r_out=1.0)
        with pytest.raises(ValueError):
            GAIN._replace(m_overlap=0.0)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                GAIN._replace(c=c)

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
        )
        for stage in stages:
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(UnitError, match="d: must be finite"):
                    stage(bad)


class TestColumnKernels:
    """The stage body on columns equals the scalar stages bit for bit, element by element."""

    @given(
        p_in=st.lists(st.floats(0.0, 1e4) | st.just(-0.0), min_size=1, max_size=40),
        fd=st.floats(0.0, 1.0),
        c=st.floats(-50.0, 5.0) | st.just(-0.0),
        b1=st.floats(-5.0, 5.0) | st.just(-0.0),
    )
    @example(p_in=[5e-324], fd=0.5, c=-5.64, b1=1.0)  # eta_all = b1/5e-324 overflows to inf
    @example(p_in=[0.0, 10.0, 1e4], fd=0.0, c=-5.64, b1=-1.0)
    @example(p_in=[0.0, -0.0, 10.0], fd=0.5, c=-0.0, b1=-0.0)
    def test_ladder_columns_match_ladder_at(self, p_in, fd, c, b1):
        p = link(7.855e-4, gain=GAIN._replace(c=c), pv=PV._replace(b1=b1))
        # on columns an overflow is flagged, not warned of, as in explorer._by_columns
        with np.errstate(all="ignore"):
            state, eff = _ladder(np.array(p_in), fd, p, _column_kit().pick)
        cols = (state.p_stored, state.p_beam, state.p_out, eff.eta_trans, eff.eta_pv, eff.eta_all)
        for i, x in enumerate(p_in):
            state, eff = ladder_at(x, fd, p)
            want = (state.p_stored, state.p_beam, state.p_out, eff.eta_trans, eff.eta_pv,
                    eff.eta_all)
            got = tuple(float(c[i]) for c in cols)
            # repr tells -0.0 from 0.0, which JSON output keeps
            assert list(map(repr, got)) == list(map(repr, want))


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


# a*a and wavelength * (l + d) both overflow, so the TEM00 loss, and f(d), is inf/inf
NAN_LOSS = reference_defaults()._replace(aperture_radius=1e300, wavelength=1.7e308)
# 2*(1 - R)*m overflows, so f(d) is inf, and so is every beam power it drives
INF_SLOPE = reference_defaults()._replace(gain=GAIN._replace(m_overlap=1.7e308, r_out=1e-300))
UNSTABLE_LADDER = (PowerState(30.0, 30.0 * GAIN.eta_stored, 0.0, 0.0),
                   EfficiencyBreakdown(GAIN.eta_stored, 0.0, 0.0, 0.0))
POINT_KERNELS = {  # the call at a link and d, and its answer where the cavity is unstable
    "beam_power": (lambda p, d: beam_power(30.0, d, p), 0.0),
    "transmission_efficiency": (lambda p, d: transmission_efficiency(30.0, d, p), 0.0),
    "end_to_end": (lambda p, d: end_to_end(30.0, d, p), UNSTABLE_LADDER),
    "thresholds": (lambda p, d: thresholds(d, p), UnreachableTargetError),
    "required_input_power": (lambda p, d: required_input_power(1.0, d, p), UnreachableTargetError),
}


@pytest.mark.parametrize("d", [11.0, 2.0], ids=["unstable", "stable"])
@pytest.mark.parametrize("kernel", list(POINT_KERNELS))
def test_f_d_is_read_only_where_the_cavity_is_stable(kernel, d):
    # past d_max = 10.43 m no beam forms, whatever f(d) would be there; at a stable d an
    # inf/inf loss raises UnitError, as a dataset row there flags overflow
    call, unstable = POINT_KERNELS[kernel]
    if d == 2.0:
        with pytest.raises(UnitError, match="wavelength: must be such that a[*]a or"):
            call(NAN_LOSS, d)
    elif isinstance(unstable, type):
        with pytest.raises(unstable, match="cavity is not stable at d = 11.0 m"):
            call(NAN_LOSS, d)
    else:
        assert call(NAN_LOSS, d) == unstable


def test_an_overflowing_beam_at_an_unstable_d_is_the_unstable_answer():
    # end_to_end holds a slope of 0.0 where no beam forms, so an inf f(d) there is not read
    assert end_to_end(30.0, 11.0, INF_SLOPE) == UNSTABLE_LADDER
    with pytest.raises(UnitError, match="p_beam: must be finite"):
        end_to_end(30.0, 2.0, INF_SLOPE)
