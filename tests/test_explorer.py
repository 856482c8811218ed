import hashlib
import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resbeam.cavity
import resbeam.explorer

from resbeam import (
    BRANCHES,
    FLAT,
    CavityGeometry,
    Dataset,
    EmptyResultError,
    GainParams,
    InfeasibleTargetError,
    PvParams,
    RunConfig,
    SweepSpec,
    SystemParams,
    UnitError,
    UnknownFigureError,
    UnreachableTargetError,
    beam_power,
    calibrate_aperture,
    connecting_r2,
    emit_dataset,
    end_to_end,
    g_parameters,
    gain_to_beam_coefficient,
    max_distance_vs_r1,
    is_stable,
    r1_range_for_distance,
    reference_defaults,
    reproduce_figure,
    required_input_power,
    stored_power,
    sweep,
    thresholds,
    transmission_efficiency,
)

import oracles
from conftest import forced


# SHA-256 of the CSV of each study figure, recorded before the scipy-free
# mode loss replaced the quadrature; a refactor must leave them unchanged.
FIGURE_CSV_SHA256 = {
    6: "cf9e85bdfa54e03b91837e6144610926dc1388fd2375569da6e1a2c520bf6566",
    7: "a1f04747fd0863a9712f673ed82d0f1b78ae0e7d8c961bc056f0e28dea0079c3",
    8: "aa8fb568b66d1d36b7e987059e2501880697f40bc4658d8cd0143899b9287f73",
    9: "a13393d4a8d5288feb95462a5292c8408e77a1a2c1adf14f4fca140844bc1d7a",
    10: "ddd3e9ba294a03df65e3d68ba0acc3a6b94208ad84480618cb0f5c7cfac2947a",
    11: "c2a156b90a689d6c08b7b48b5ee47d00020303c7973636ec02bf2a6ae5220e16",
    12: "27a451b5af90cb8a5849d3e4765b887fdf28147a18a5c2cee105fc6fcb8b9727",
    13: "09bdd64164676e71b1f373e7a95b94da46eb147f709bc432d16ac729d91d7c3d",
}


def grid(lo, hi, n):
    return tuple(float(x) for x in np.linspace(lo, hi, n))


REF = reference_defaults()
UNSTABLE_D = REF._replace(d=11.0)  # past d_max = 10.43 m
FLAT_R2 = REF._replace(geometry=REF.geometry._replace(r2=FLAT))
# Stable set (0, 2.94) U (5.18, 8.18) m, so d = 5 m falls in the gap.
R2_3 = REF._replace(geometry=REF.geometry._replace(r2=3.0))
# A few ULPs from R1 = l - f = -0.82 m, where g1 stops depending on d; rounding
# leaves it a slope of about 1e-14 per meter, so the reach ends near 1e14 m.
R1_NEAR_L_MINUS_F = -0.8200000000000066
R1_DESIGN_GRID = (-1.5, -1.0, R1_NEAR_L_MINUS_F, -0.82, -0.7, -0.5, 0.0, 0.5, 1.0)

# name -> (dataset builder, flag tokens its rows carry)
DATASET_CASES = {
    "sweep-d": (
        lambda: sweep(SweepSpec("d", grid(0.1, 12.0, 60), REF._replace(p_in=60.0))),
        {"unstable", "below-threshold"},
    ),
    "sweep-P_in": (
        lambda: sweep(SweepSpec("P_in", grid(0.0, 100.0, 21), REF)),
        {"below-threshold"},
    ),
    "sweep-P_in-unstable": (
        lambda: sweep(SweepSpec("P_in", grid(0.0, 100.0, 5), UNSTABLE_D)),
        {"unstable"},
    ),
    "sweep-P_stored": (
        lambda: sweep(SweepSpec("P_stored", grid(0.0, 30.0, 16), REF)),
        {"below-threshold", "undefined-at-zero"},
    ),
    "sweep-P_stored-unstable": (
        lambda: sweep(SweepSpec("P_stored", grid(0.0, 30.0, 4), UNSTABLE_D)),
        {"unstable"},
    ),
    "sweep-P_beam": (
        lambda: sweep(SweepSpec("P_beam", grid(0.0, 30.0, 16), REF)),
        {"below-threshold", "undefined-at-zero"},
    ),
    "sweep-R1": (
        lambda: sweep(SweepSpec(
            "R1", (-1.5, -1.0, R1_NEAR_L_MINUS_F, -0.6, -0.1, 0.0, 0.05, 0.3, 3.0), FLAT_R2
        )),
        {"no-stable-region", "invalid-r1"},
    ),
    "r1-design-origin": (
        lambda: max_distance_vs_r1(0.06, 0.88, R1_DESIGN_GRID, "origin"),
        {"no-stable-region", "no-solution"},
    ),
    "r1-design-tangent": (
        lambda: max_distance_vs_r1(0.06, 0.88, R1_DESIGN_GRID, "tangent"),
        {"no-solution"},
    ),
}

# SHA-256 of emit_dataset(..., fmt), recorded before the drivers shared one
# row loop; a refactor must leave them unchanged.
DATASET_SHA256 = {
    "sweep-d": {
        "csv": "6c6ce11c88b58680f5e00827b3f643c2097df1d28f56b01c7b0e8cadb19ad6a3",
        "json": "c2aacda4380bf37045d26f5a8dedcaaeea17465153be5e2ceb82046eff2994a4",
    },
    "sweep-P_in": {
        "csv": "1a5df7dbfeee825589caaa4aeed40375c8e6eb8f5d0ddf897c95bb237f26e4c8",
        "json": "f9f5f325917ce78661ad638cf898902e347974d3325784d311ae246c080e1a47",
    },
    "sweep-P_in-unstable": {
        "csv": "440c07140570aaddb17b118b63c8ef18b550af93ef38f9004c595e9585eb04a2",
        "json": "2f51304b6d4680c8d79267736aeb9030163a539900502e55662821a7cbc089ec",
    },
    "sweep-P_stored": {
        "csv": "63e74fe035e2755744934eb744afc682c55317b9c99774405007fbd9f966f0f1",
        "json": "f5d194e44e199bc65377facf0faa4a535d26e359b27c554a7f1202c9cf15f489",
    },
    "sweep-P_stored-unstable": {
        "csv": "e85c51d8281737364cda374455a3d0b4b11a67661de0467f1f8ddbd7ba01e714",
        "json": "f1c1997fb31623eb2c355fe7e1774a36aae6a1bec9de3f680518cbabb62b18cc",
    },
    "sweep-P_beam": {
        "csv": "ec2528e53a8fb9e4bfcb6cb4161b15440e139055434fdaccc9f68e702c149275",
        "json": "74aeb62bbf89fa3acd8a22b7f44f8063761cdf01a7bd47e42dc566af4f3731ce",
    },
    "sweep-R1": {
        "csv": "ce70ba4878049b34b19566551c2ec669a517bff2830a6157e92c36ccdde00795",
        "json": "b1d3cb873107b3bae575ec2b04e63b78a20f9c873317ffed41abbd179a780f0f",
    },
    "r1-design-origin": {
        "csv": "d772162f3a95426423f2d0c6c3882c078d5b4ac6ec22f145eff7c268a6ee63ca",
        "json": "577e17c68665399fc8893b5a55c80dd6c2b43427f5fc3e5955538e771191e449",
    },
    "r1-design-tangent": {
        "csv": "657fb05dfa93eb87b8bf69ad10195a655c3cc4b21f29c00ca67483ac3e3206d6",
        "json": "95def8ba911b67e7fb4d4701b36ad3549f823211ac572b5bfd94d1d79f0b63ab",
    },
}

FIGURE_R2_3_SHA256 = {
    6: {
        "csv": "e02ac51091f0cc19b201af598ab54d36c4aa3edb97038723490fb5e6b2098888",
        "json": "3841e077f0b40245b49ac30a792c0be7789dc7c34d72d3b0301081d0550c5580",
    },
    7: {
        "csv": "08119ca9c9f9c0e5adaf72e0db2eb786b3e582283753281a27afc6c37f25d5f6",
        "json": "240a2d09bfc1aaa113885c6ba974fb37897098c7dbf762fe7036735b7bbfd797",
    },
    8: {
        "csv": "1530707555968739259e2eaf7544aac8a7fd3d875620f8889f8fa898dd023efc",
        "json": "eeefa4b7bbaa0330b7cf037beefa7f0ab8ddeaa02c00a89de292d730b7a07321",
    },
    9: {
        "csv": "8b7d1b3698f9335172cc95561f1ec95d8efdd238782d13ccbb5c407a4d0969bf",
        "json": "38c78d3f4e3eea8686de8fbc74dda260e36878c63849f8761203796fa521c1c6",
    },
    10: {
        "csv": "045b8268fa0e5604316c1d6e8c551f82a2b8c3675e48acd4403f5490e9b04661",
        "json": "4e6442b3b2a1748426aa7c3f9d0d3d5d8029229d4db8fc4f77ba69b002cdcccf",
    },
    11: {
        "csv": "6465f4328849d3e3053c6853042fcbad80ee3f305ef530dddcdeaac41e92f0ef",
        "json": "234286a59df80ed11f3ffc7d5ec6fdf673b7d645e36a0de2a6a2dddfe8164477",
    },
    12: {
        "csv": "f1dcfe0321ed91d3dab231ef71c5127aa4f07e1014ab0c3cb4c03be75f4ba54c",
        "json": "18dabfad4549899ed5c5a903b2e7f6625d0331bd669191057e77db761f2e70d3",
    },
    13: {
        "csv": "770483d687c3832e1b06b2203b3b7d8caaf029598ce7ce959fc54eb960ec358f",
        "json": "0bdbcf3a63421c33af6371e33545517cbd23daee0a92d6162d17412ff39b3ca2",
    },
}


class TestSweep:
    def test_distance_sweep_shape(self, default_params):
        ds = sweep(SweepSpec(variable="d", grid=grid(0.1, 10.0, 100), fixed=default_params))
        assert ds.n_rows == 100
        assert list(ds.columns) == ["d_m", "f_d", "P_beam_W", "eta_trans", "P_out_W", "eta_all"]

    def test_pin_sweep_crosses_threshold_once(self, default_params):
        ds = sweep(SweepSpec(variable="P_in", grid=grid(0.0, 100.0, 200), fixed=default_params))
        positive = ds.column("P_out_W") > 0
        assert int(np.sum(np.diff(positive.astype(int)) != 0)) == 1

    def test_determinism(self, default_params):
        spec = SweepSpec(variable="d", grid=grid(0.1, 10.0, 50), fixed=default_params)
        assert emit_dataset(sweep(spec)) == emit_dataset(sweep(spec))

    def test_unstable_rows_flagged(self, default_params):
        ds = sweep(SweepSpec(variable="d", grid=grid(0.5, 15.0, 30), fixed=default_params))
        flags = np.array(ds.flags)
        d = ds.column("d_m")
        assert all(f == "unstable" for f in flags[d > 10.5])
        assert all(ds.column("P_beam_W")[d > 10.5] == 0.0)

    def test_pbeam_sweep(self, default_params):
        ds = sweep(SweepSpec(variable="P_beam", grid=grid(0.0, 30.0, 40), fixed=default_params))
        assert ds.flags[0] == "undefined-at-zero"
        pv = ds.column("P_pv_W")
        assert pv[-1] == pytest.approx(0.3487 * 30.0 - 1.535, rel=1e-12)

    def test_r1_sweep_columns_and_values(self, default_params):
        ds = sweep(SweepSpec(variable="R1", grid=grid(-1.2, -0.6, 13), fixed=default_params))
        assert list(ds.columns) == ["R1_m", "g1", "g2", "stable", "d_max_m", "contiguous"]
        # r2 stays fixed at the bundle value, so every row here keeps some
        # stable range and reports a positive maximum distance
        clean = [i for i, fl in enumerate(ds.flags) if fl == ""]
        assert clean
        assert all(ds.column("d_max_m")[i] > 0 for i in clean)
        i_ref = int(np.argmin(np.abs(ds.column("R1_m") + 1.0)))
        assert ds.column("d_max_m")[i_ref] == pytest.approx(10.428834688346878, rel=1e-9)

    def test_rejects_bad_spec(self, default_params):
        with pytest.raises(ValueError):
            SweepSpec(variable="q", grid=(1.0,), fixed=default_params)
        with pytest.raises(ValueError):
            SweepSpec(variable="d", grid=(), fixed=default_params)
        with pytest.raises(ValueError):
            SweepSpec(variable="d", grid=(1.0, 1.0), fixed=default_params)
        # NaN compares false both ways, so a pairwise check let it through to the Dataset
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UnitError, match="grid: must be finite"):
                SweepSpec(variable="d", grid=(1.0, bad, 3.0), fixed=default_params)
        for field in ("d", "p_in", "aperture_radius", "wavelength"):
            for bad in (-1.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    default_params._replace(**{field: bad})

    # the P_in and P_stored rules never read their grid where the cavity is unstable
    @pytest.mark.parametrize("variable", ["d", "P_in", "P_stored", "P_beam"])
    def test_rejects_negative_grid_point(self, variable):
        with pytest.raises(UnitError, match="grid: must be finite and >= 0, got -5.0"):
            SweepSpec(variable, (-5.0, 1.0), UNSTABLE_D)


class TestRequiredInputPower:
    def test_calibrated_reference(self, default_params):
        pin = required_input_power(1.0, 1.0, default_params)
        assert pin == pytest.approx(56.784025164971794, rel=1e-9)

    def test_round_trip_identity(self, default_params):
        p = default_params
        for target in (0.5, 1.0, 2.5, 7.0):
            pin = required_input_power(target, 1.0, p)
            state, _ = end_to_end(pin, 1.0, p)
            assert state.p_out == pytest.approx(target, abs=1e-9)

    def test_threshold_limit(self, default_params):
        p = default_params
        pin = required_input_power(1e-12, 1.0, p)
        from resbeam import thresholds

        th = thresholds(1.0, p)
        assert pin == pytest.approx(th.p_in, rel=1e-9)

    def test_unstable_distance_raises(self, default_params):
        with pytest.raises(UnreachableTargetError):
            required_input_power(1.0, 15.0, default_params)

    # a positive offset gives output at zero input, max(0, a1*max(0, c) + b1), and no
    # drive gives less; at or above it the answer round-trips
    @pytest.mark.parametrize("offsets, below", [
        ({"b1": 1.0}, 0.5), ({"c": 5.0, "b1": 1.0}, 1.0), ({"c": 5.0}, 0.1),
        ({"c": 0.2, "b1": 1.0}, 1.0),  # at its zero-input output the closed form reads -1.1e-16
    ], ids=["b1", "c-and-b1", "c", "rounding"])
    def test_a_target_below_the_zero_input_output_raises(self, offsets, below):
        p = RunConfig(**offsets).system_params()
        at_zero = end_to_end(0.0, 1.0, p)[0].p_out
        assert 0.0 < below < at_zero == p.pv.a1 * max(0.0, p.gain.c) + p.pv.b1
        with pytest.raises(UnreachableTargetError, match="below the output at zero input"):
            required_input_power(below, 1.0, p)
        for target in (at_zero, math.nextafter(at_zero, math.inf), 2.0 * at_zero):
            pin = required_input_power(target, 1.0, p)
            assert pin >= 0.0
            assert end_to_end(pin, 1.0, p)[0].p_out == pytest.approx(target, rel=1e-12)

    def test_thresholds_clamp_at_zero(self):
        # c = 5 W, b1 = 1 W: every stage passes power at zero drive
        assert thresholds(1.0, RunConfig(c=5.0, b1=1.0).system_params()) == (0.0, 0.0, 0.0)
        # b1 = 1 W alone: the PV passes power at zero beam, and the beam forms at -c/f(d)
        p = RunConfig(b1=1.0).system_params()
        th = thresholds(1.0, p)
        assert th.p_beam == 0.0 and th.p_stored == -p.gain.c / gain_to_beam_coefficient(1.0, p)
        assert th.p_in == th.p_stored / p.gain.eta_stored

    def test_zero_slope_raises(self, default_params):
        # a subnormal mode overlap makes f(d) read 0.0 at a stable d: no drive gives output
        p = default_params._replace(gain=default_params.gain._replace(m_overlap=5e-324))
        assert is_stable(p.geometry, 1.0) and gain_to_beam_coefficient(1.0, p) == 0.0
        with pytest.raises(UnreachableTargetError, match="no finite input power gives 1.0 W"):
            required_input_power(1.0, 1.0, p)
        # nor does any drive reach the output threshold, which divided by f(d) = 0.0
        with pytest.raises(UnreachableTargetError, match="no finite input power reaches"):
            thresholds(1.0, p)

    def test_an_overflowed_slope_raises(self):
        # 2*(1-R)*m overflows, so f(d) reads inf at a stable d; no input power answers, and
        # 0 W, the quotient's reading, gives no output at all
        p = RunConfig(m_overlap=1.7e308, r_out=1e-300).system_params()
        assert is_stable(p.geometry, 1.0) and gain_to_beam_coefficient(1.0, p) == math.inf
        overflows = re.escape("the slope f(d) overflows at d = 1.0 m")
        with pytest.raises(UnreachableTargetError, match=overflows):
            required_input_power(1.0, 1.0, p)
        with pytest.raises(UnreachableTargetError, match=overflows):
            thresholds(1.0, p)

    # a faint mode overlap leaves f(d) > 0 but the answer overflows at a stable d, and so
    # does a huge target or PV offset at the reference link
    @pytest.mark.parametrize("offsets, target", [
        ({"m_overlap": 1e-310}, 1.0), ({}, 1.7e308), ({"b1": -1.7e308}, 1.7e308),
    ], ids=["faint", "huge-target", "huge-offset"])
    def test_a_non_finite_input_power_raises(self, offsets, target):
        p = RunConfig(**offsets).system_params()
        assert is_stable(p.geometry, 1.0)
        gives = re.escape(f"no finite input power gives {target} W at d = 1.0 m")
        with pytest.raises(UnreachableTargetError, match=gives):
            required_input_power(target, 1.0, p)
        if offsets:  # the reference link's thresholds are finite
            with pytest.raises(UnreachableTargetError, match="no finite input power reaches the "
                                                             "output threshold at d = 1.0 m"):
                thresholds(1.0, p)

    @pytest.mark.parametrize("m_overlap", [1e-310, 5e-324])
    def test_a_stage_on_at_zero_drive_has_a_zero_threshold_at_a_faint_overlap(self, m_overlap):
        # c = 5 W, b1 = 1 W: every stage passes power at zero drive, whatever f(d) is
        p = RunConfig(m_overlap=m_overlap, c=5.0, b1=1.0).system_params()
        assert thresholds(1.0, p) == (0.0, 0.0, 0.0)
        at_zero = p.pv.a1 * p.gain.c + p.pv.b1
        assert required_input_power(at_zero, 1.0, p) == 0.0

    def test_rejects_non_finite_inputs(self, default_params):
        for bad in (math.nan, math.inf):
            with pytest.raises(UnitError, match="target_p_out: must be finite"):
                required_input_power(bad, 1.0, default_params)
            with pytest.raises(UnitError, match="d: must be finite"):
                required_input_power(1.0, bad, default_params)


@given(
    r1=st.sampled_from([-1.0, -0.9, -1.5, FLAT]),
    r2=st.sampled_from([REF.geometry.r2, 3.0, -5.0, FLAT]),
    d=st.floats(0.0, 30.0),
    c=st.floats(-10.0, 5.0),
    b1=st.floats(-3.0, 3.0),
    p_in=st.floats(0.0, 500.0),
)
@example(r1=-1.0, r2=REF.geometry.r2, d=11.0, c=-5.64, b1=-1.535, p_in=300.0)
@example(r1=-1.0, r2=3.0, d=5.0, c=2.0, b1=1.0, p_in=100.0)  # in a gap, offsets > 0
@example(r1=-1.0, r2=REF.geometry.r2, d=0.0, c=0.0, b1=1.0, p_in=2.2250738585e-313)  # overflow
def test_power_thresholds_sweep_and_required_pin_agree_on_the_beam(r1, r2, d, c, b1, p_in):
    # no resonant beam forms where the cavity is unstable, on any path
    p = REF._replace(geometry=REF.geometry._replace(r1=r1, r2=r2), p_in=p_in,
                     gain=REF.gain._replace(c=c), pv=REF.pv._replace(b1=b1))
    forms = is_stable(p.geometry, d)
    state, eff = end_to_end(p_in, d, p)
    row = sweep(SweepSpec("d", (d,), p))
    assert (row.flags[0] == "unstable") is not forms
    if forms:
        assert min(thresholds(d, p)) >= 0.0
        # 1 W is out of reach exactly where the output at zero input exceeds it
        if end_to_end(0.0, d, p)[0].p_out > 1.0:
            with pytest.raises(UnreachableTargetError, match="below the output at zero input"):
                required_input_power(1.0, d, p)
        else:
            pin = required_input_power(1.0, d, p)
            assert pin >= 0.0
            assert end_to_end(pin, d, p)[0].p_out == pytest.approx(1.0, rel=1e-9)
    else:
        for solve in (lambda: thresholds(d, p), lambda: required_input_power(1.0, d, p)):
            with pytest.raises(UnreachableTargetError):
                solve()
    assert state.p_stored == stored_power(p_in, p.gain)
    got = (state.p_beam, state.p_out, eff.eta_trans, eff.eta_all)
    want = tuple(row.column(k)[0] for k in ("P_beam_W", "P_out_W", "eta_trans", "eta_all"))
    if row.flags[0] == "overflow":  # a ratio past the largest float: the row reads 0
        assert not all(map(math.isfinite, got)) and want == (0.0,) * 4
    else:
        assert got == want
    assert beam_power(state.p_stored, d, p) == state.p_beam
    if state.p_stored > 0:
        assert transmission_efficiency(state.p_stored, d, p) == eff.eta_trans
    if not forms:
        assert got + (eff.eta_pv,) == (0.0,) * 5


class TestCalibrateAperture:
    def test_reference_fixed_point(self, default_params):
        p = default_params
        a = calibrate_aperture(1.0, 30.0, 0.61, p)
        assert a == pytest.approx(7.855301511370797e-4, rel=1e-6)
        eta = transmission_efficiency(30.0, 1.0, p._replace(aperture_radius=a))
        assert eta == pytest.approx(0.61, abs=1e-6)

    def test_matches_algebraic_inversion(self, default_params):
        p = default_params
        for d, ps, target in ((1.0, 30.0, 0.61), (2.0, 25.0, 0.4), (5.0, 40.0, 0.3)):
            a = calibrate_aperture(d, ps, target, p)
            f_needed = target - p.gain.c / ps
            ref = oracles.aperture_for_coefficient(
                f_needed, d, p.gain.r_out, p.gain.m_overlap, p.gain.c, p.wavelength, p.l
            )
            assert a == pytest.approx(ref, rel=1e-8)

    def test_infeasible_target(self, default_params):
        with pytest.raises(InfeasibleTargetError):
            calibrate_aperture(1.0, 30.0, 0.99, default_params)

    def test_nan_target_is_rejected(self, default_params):
        # no comparison with NaN fires, so an unchecked target slips past every range check
        with pytest.raises(ValueError):
            calibrate_aperture(1.0, 30.0, math.nan, default_params)

    def test_unstable_distance_raises(self, default_params):
        # past d_max = 10.43 m no aperture forms a beam, so eta_trans is 0 at any a
        with pytest.raises(UnreachableTargetError, match="not stable at d = 11.0 m"):
            calibrate_aperture(11.0, 30.0, 0.5, default_params)
        assert transmission_efficiency(30.0, 11.0, default_params) == 0.0

    def test_floor_target_returns_zero(self, default_params):
        p = default_params
        floor = transmission_efficiency(30.0, 1.0, p._replace(aperture_radius=0.0))
        assert calibrate_aperture(1.0, 30.0, floor, p) == 0.0

    def test_floor_answers_before_the_ceiling(self, default_params):
        # no aperture lifts this beam over threshold: eta is 0 at every a, and
        # the unclamped zero-loss ceiling is negative
        p = default_params._replace(gain=default_params.gain._replace(r_out=0.5, c=-5.0))
        assert calibrate_aperture(0.0, 5.0, 0.0, p) == 0.0
        with pytest.raises(InfeasibleTargetError, match="below the closed-aperture floor"):
            calibrate_aperture(0.0, 5.0, -0.1, p)

    def test_reference_gives_the_default_aperture(self, default_params):
        a = calibrate_aperture(1.0, 30.0, 0.61, default_params)
        assert a == pytest.approx(RunConfig().a, rel=1e-15)

    def test_one_ulp_below_the_ceiling_is_infeasible(self, default_params):
        # the needed loss rounds to 0 here, which no finite aperture gives
        g = default_params.gain
        ceiling = 2 * (1 - g.r_out) * g.m_overlap / ((1 + g.r_out) * -math.log(g.r_out)) + g.c / 30.0
        with pytest.raises(InfeasibleTargetError, match="not reachable by any aperture"):
            calibrate_aperture(1.0, 30.0, math.nextafter(ceiling, 0.0), default_params)

    @given(d=st.floats(0.0, 10.0), p_stored=st.floats(5.0, 80.0), share=st.floats(0.0, 0.99),
           r_out=st.floats(0.5, 0.99), c=st.floats(-10.0, 2.0), wavelength=st.floats(5e-7, 2e-6))
    def test_round_trip_through_the_forward_model(self, d, p_stored, share, r_out, c, wavelength):
        p = REF._replace(gain=REF.gain._replace(r_out=r_out, c=c), wavelength=wavelength)
        assume(is_stable(p.geometry, d))
        # floor and ceiling of the efficiency: a closed aperture and a 1 m one
        floor, ceiling = (transmission_efficiency(p_stored, d, p._replace(aperture_radius=a))
                          for a in (0.0, 1.0))
        target = floor + share * (ceiling - floor)
        a = calibrate_aperture(d, p_stored, target, p)
        got = transmission_efficiency(p_stored, d, p._replace(aperture_radius=a))
        assert got == pytest.approx(target, abs=1e-9)


class TestMaxDistanceVsR1:
    def test_single_point_grid(self):
        ds = max_distance_vs_r1(0.06, 0.88, [-1.0], "origin")
        assert ds.n_rows == 1
        assert ds.column("d_max_m")[0] == pytest.approx(10.428834688346878, rel=1e-9)
        assert ds.flags[0] == ""

    def test_tangent_branch_value(self):
        ds = max_distance_vs_r1(0.06, 0.88, [-1.0], "tangent")
        assert ds.column("d_max_m")[0] == pytest.approx(5.182222222222222, rel=1e-9)

    def test_no_stable_region_flagged(self):
        ds = max_distance_vs_r1(0.06, 0.88, [-0.7], "origin")
        assert ds.flags[0] == "no-stable-region"
        assert ds.column("d_max_m")[0] == 0.0

    def test_degenerate_r1_flagged(self):
        ds = max_distance_vs_r1(0.25, 0.5, [-0.25], "origin")
        assert ds.flags[0] == "no-solution"

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_r1_is_rejected(self, bad):
        with pytest.raises(UnitError, match=f"grid: must be finite, got {bad}"):
            max_distance_vs_r1(0.06, 0.88, [-1.0, bad], "origin")


def written_out_grid(variable: str, points, increasing: bool) -> tuple[float, ...]:
    """The grid checks as they read with one scan per rule (and with float.__lt__):
    SweepSpec's where increasing, max_distance_vs_r1's otherwise."""
    from resbeam.errors import require

    try:
        if isinstance(points, (str, bytes)):
            grid = ()
        elif getattr(points, "ndim", 0) == 1:
            grid = tuple(points.astype(float).tolist())
        else:
            grid = tuple(map(float, points))
    except (TypeError, ValueError):
        grid = ()
    require("grid", points, len(grid) > 0, "a nonempty sequence of numbers")
    signed = variable == "R1"
    if not (all(map(math.isfinite, grid)) and (signed or min(grid) >= 0)):
        bad = next(x for x in grid if not (math.isfinite(x) and (signed or x >= 0)))
        require("grid", bad, False, "finite" if signed else "finite and >= 0")
    if increasing and not all(map(float.__lt__, grid, grid[1:])):
        pair = next(q for q in zip(grid, grid[1:]) if q[0] >= q[1])
        require("grid", pair, False, "strictly increasing")
    return grid


def outcome(call) -> tuple:
    """("ok", the bits of the grid kept) or (error type, key, value, message)."""
    try:
        kept = call()
    except Exception as exc:
        return type(exc), getattr(exc, "key", None), getattr(exc, "value", None), str(exc)
    assert all(type(x) is float for x in kept)
    return "ok", [x.hex() for x in kept]


GRID_POINT = st.one_of(
    st.integers(-3, 5), st.floats(), st.floats().map(np.float64), st.just("2.5"),
    st.sampled_from([0.0, -0.0, 1e308, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]))


@st.composite
def grids(draw):
    """A list, tuple or array of grid points, in draw order or sorted, maybe with a repeat."""
    points = draw(st.lists(GRID_POINT, max_size=8))
    if draw(st.booleans()):
        points.sort(key=float)
    if points and draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(points)))
    kind = draw(st.sampled_from(["list", "tuple", "array"]))
    if kind == "array" and "2.5" not in points:
        return np.array(points)
    return tuple(points) if kind == "tuple" else points


class TestGridChecks:
    # each grid check scans once where the grid passes; a bad grid still fails with the
    # type, key, value and message of the one-scan-per-rule checks written out above
    @settings(max_examples=400, deadline=None)
    @given(grids(), st.sampled_from(["d", "R1"]))
    @example([1e308, 1.7e308], "d")  # finite points whose sum overflows
    @example(np.array([-1.7e308, -1e308, 1e308, 1.7e308]), "R1")
    @example([0.0, -0.0], "d")
    @example([-0.0, 0.0, 1.0], "d")
    @example((1, 2, 2), "d")
    @example([1.0, -5.0], "d")
    @example([1.0, math.nan, -5.0], "R1")
    @example((np.float64(1.0), 2, "2.5"), "P_in")
    def test_bad_grids_fail_as_before(self, points, variable):
        want = outcome(lambda: written_out_grid(variable, points, True))
        assert outcome(lambda: SweepSpec(variable, points, REF).grid) == want
        want = outcome(lambda: written_out_grid("R1", points, False))
        got = outcome(lambda: max_distance_vs_r1(0.06, 0.88, points, "origin").columns["R1_m"])
        assert got == want


# l and f are per-call scalars, so a bad one is an error, not a flag on every row
@pytest.mark.parametrize("key, l, f", [("l", -0.06, 0.88), ("l", math.nan, 0.88),
                                       ("f", 0.06, 0.0), ("f", 0.06, math.nan)])
@pytest.mark.parametrize("driver", [
    lambda l, f: max_distance_vs_r1(l, f, [-1.0, -0.9], "origin"),
    lambda l, f: r1_range_for_distance(5.0, l, f, "origin", (-1.5, -0.5)),
], ids=["max_distance_vs_r1", "r1_range_for_distance"])
def test_r1_drivers_reject_invalid_l_f(driver, key, l, f):
    with pytest.raises(UnitError) as err:
        driver(l, f)
    assert err.value.key == key


class TestR1RangeForDistance:
    def test_reaches_five_meters(self):
        ivals = r1_range_for_distance(5.0, 0.06, 0.88, "origin", (-1.5, -0.5))
        assert len(ivals) == 1
        lo, hi = ivals[0]
        assert lo == pytest.approx(-1.3075, abs=2e-3)
        assert hi == pytest.approx(-0.8200, abs=2e-3)

    def test_tiny_target_gives_whole_solvable_subset(self):
        ivals = r1_range_for_distance(1e-4, 0.06, 0.88, "origin", (-1.5, -0.5))
        assert len(ivals) == 1
        lo, hi = ivals[0]
        assert lo == -1.5
        assert hi == pytest.approx(-0.8200, abs=2e-3)

    def test_unreachable_target_raises(self):
        with pytest.raises(EmptyResultError):
            r1_range_for_distance(1e6, 0.06, 0.88, "origin", (-1.4, -0.9))

    def test_non_finite_target_raises(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UnitError, match="target_d: must be finite"):
                r1_range_for_distance(bad, 0.06, 0.88, "origin", (-1.5, -0.5))

    def test_window_past_9e307_is_probed_inside(self):
        # every R1 here reaches 1.82 m on the origin branch, out to ends whose sum overflows
        window = (-1.7e308, -1e308)
        assert r1_range_for_distance(1.0, 0.06, 0.88, "origin", window) == [window]

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 20.0), st.floats(0.03, 0.12), st.sampled_from([0.88, 0.5, 2.0, FLAT]),
           st.sampled_from(BRANCHES), st.floats(-3.0, 2.0), st.floats(0.01, 2.0))
    @example(5.0, 0.06, 0.88, "origin", -1.5, 1.0)
    @example(3.0, 0.06, 0.88, "tangent", -0.85, 0.05)  # around R1 = l - f = -0.82
    @example(0.5, 0.06, 0.88, "tangent", -2.0, 3.0)  # two intervals, R1 = 0 between
    def test_intervals_are_where_the_design_rows_reach(self, target, l, f, branch, lo, width):
        # one question, one answer: every R1 inside a returned interval has a design row that
        # reaches the target (a reach past the float range reads overflow), and every R1
        # outside has none; R1 within 1e-9 of an edge, of the window's ends, of l - f or of 0
        # is left out
        window = (lo, lo + width)
        try:
            intervals = r1_range_for_distance(target, l, f, branch, window)
        except EmptyResultError:
            intervals = []
        edges = {e for interval in [window, *intervals] for e in interval} | {l - f, 0.0} - {-math.inf}
        r1s = [r1 for r1 in np.linspace(*window, 200).tolist()
               if all(abs(r1 - e) > 1e-9 * max(1.0, abs(e)) for e in edges)]
        ds = max_distance_vs_r1(l, f, r1s, branch)
        for r1, d_max, flag in zip(r1s, ds.columns["d_max_m"], ds.flags):
            reaches = (flag == "" and d_max >= target) or flag == "overflow"
            assert reaches == any(a < r1 < b for a, b in intervals), (r1, d_max, flag)

    def test_runs_no_column_kernel(self, monkeypatch):
        # the edges are thresholds inverted in closed form, one scalar division each
        def column_call(*args):
            raise AssertionError("column kernel called")

        # the bodies run on columns only through the column kit explorer._column_kit()
        kit = resbeam.explorer._column_kit()._replace(pick=column_call)
        monkeypatch.setattr(resbeam.explorer, "_column_kit", lambda: kit)
        assert len(r1_range_for_distance(5.0, 0.06, 0.88, "origin", (-1.5, -0.5))) == 1
        assert resbeam.explorer.r1_range_for_distance is resbeam.cavity.r1_range_for_distance

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["search_from", "search_to"])
    def test_non_finite_search_bound_names_it(self, key, bad):
        window = (bad, -0.5) if key == "search_from" else (-1.5, bad)
        with pytest.raises(UnitError) as err:
            r1_range_for_distance(5.0, 0.06, 0.88, "origin", window)
        assert err.value.key == key

    def test_edges_are_exact_boundaries(self):
        # at each inner edge the target distance is a stability boundary of the design
        for branch in BRANCHES:
            for lo, hi in r1_range_for_distance(3.0, 0.06, 0.88, branch, (-1.5, -0.5)):
                for r1 in {lo, hi} - {-1.5, -0.5}:
                    g = CavityGeometry(0.06, 0.88, r1, connecting_r2(0.06, 0.88, r1, branch))
                    der = g_parameters(g, 3.0)
                    gg = der.g1 * der.g2
                    assert min(abs(der.g1), abs(der.g2), abs(gg - 1.0)) < 1e-12


R1_SCAN_POINTS = 20001


@st.composite
def r1_searches(draw):
    """(target, l, f, branch, window): windows inside [-2, -0.2], across l - f, or across 0."""
    l, f = draw(st.floats(0.03, 0.12)), draw(st.floats(0.3, 2.0))
    target, branch = draw(st.floats(0.5, 14.0)), draw(st.sampled_from(BRANCHES))
    kind = draw(st.sampled_from(["inside", "across l - f", "across 0"]))
    if kind == "inside":
        lo, hi = sorted((draw(st.floats(-2.0, -0.2)), draw(st.floats(-2.0, -0.2))))
    elif kind == "across l - f":
        lo, hi = draw(st.floats(-2.0, l - f)), draw(st.floats(l - f, max(l - f, -0.2)))
    else:
        lo, hi = draw(st.floats(-2.0, -0.2)), draw(st.floats(0.2, 2.0))
    assume(hi - lo > 0.01)
    return target, l, f, branch, (lo, hi)


@settings(max_examples=200, deadline=None)
@given(r1_searches())
@example((5.0, 0.06, 0.88, "origin", (-1.5, -0.5)))
@example((2.0, 0.06, 0.88, "tangent", (-1.5, -0.5)))  # reaches on both sides of l - f
@example((0.5, 0.06, 0.88, "tangent", (-2.0, 2.0)))  # two intervals, R1 = 0 between
def test_r1_range_matches_a_dense_scan(search):
    target, l, f, branch, (lo, hi) = search
    try:
        got = r1_range_for_distance(target, l, f, branch, (lo, hi))
    except EmptyResultError:
        got = []
    step = (hi - lo) / (R1_SCAN_POINTS - 1)
    # a feature narrower than the grid may fall between its points
    assume(all(b - a > 2.0 * step for a, b in got))
    assume(all(c - b > 2.0 * step for (_, b), (c, _) in zip(got, got[1:])))
    want = oracles.scan_r1_range(target, l, f, branch, lo, hi, R1_SCAN_POINTS)
    assert len(got) == len(want)
    for edges, grid_edges in zip(got, want):
        assert all(abs(x - y) <= 1.001 * step for x, y in zip(edges, grid_edges))


@given(l=st.floats(0.03, 0.12), f=st.floats(0.3, 2.0),
       r1=st.one_of(st.floats(-2.0, -0.2), st.floats(0.2, 2.0)))
def test_connected_branches_never_merge_two_d_boundaries(l, f, r1):
    # in exact arithmetic, so R1 edges need no discriminant candidates: on the
    # origin branch the roots of g1 = 0 and g2 = 0 always coincide, and on the
    # tangent branch g1*g2 = 1 always has a double root in d
    l, f, r1 = Fraction(l), Fraction(f), Fraction(r1)
    c0 = 1 - l / f
    den = 1 / f + c0 / r1
    assume(c0 != 0 and den != 0)
    for sign in (1, -1):
        def g(d):
            L = l + d - l * d / f
            return 1 - d / f - L / r1, 1 - l / f - L * sign * c0 * den

        (a1, a2), (e1, e2) = g(0), g(1)
        b1, b2 = e1 - a1, e2 - a2
        if sign == 1:
            assert a1 * b2 - a2 * b1 == 0
        else:
            assert (a1 * b2 + a2 * b1) ** 2 - 4 * b1 * b2 * (a1 * a2 - 1) == 0


class TestReproduceFigure:
    def test_figure6_exact_line(self):
        ds = reproduce_figure(6)
        pin, ps = ds.column("P_in_W"), ds.column("P_stored_W")
        slope = (ps[-1] - ps[0]) / (pin[-1] - pin[0])
        assert slope == pytest.approx(0.2849, rel=1e-12)
        assert ps[0] == 0.0  # through the origin

    def test_figure11_exact_line_above_threshold(self):
        ds = reproduce_figure(11)
        pb, ppv = ds.column("P_beam_W"), ds.column("P_pv_W")
        above = pb > 4.5
        slope = np.polyfit(pb[above], ppv[above], 1)
        assert slope[0] == pytest.approx(0.3487, rel=1e-9)
        assert slope[1] == pytest.approx(-1.535, rel=1e-9)

    def test_figure13_efficiency_band(self):
        ds = reproduce_figure(13)
        eta = ds.column("eta_all_pin100")
        assert eta.max() == pytest.approx(0.04426033474, rel=1e-9)
        assert 0.040 <= eta.max() <= 0.050

    def test_figure7_has_all_series(self):
        ds = reproduce_figure(7)
        assert ds.n_rows == 200
        for l_mm in (60, 80, 100):
            for branch in ("origin", "tangent"):
                assert f"d_max_l{l_mm}_{branch}_m" in ds.columns

    def test_figure8_tangent_goes_unstable(self):
        ds = reproduce_figure(8)
        d = ds.column("d_m")
        w = ds.column("w_m2_tangent_m")
        assert all(w[d > 5.3] == 0.0)
        assert all("tangent:unstable" in f for f in np.array(ds.flags)[d > 5.3])
        assert all(w[d < 5.0] > 0.0)

    def test_figure9_ordering(self):
        ds = reproduce_figure(9)
        eta1 = ds.column("eta_trans_d1")
        eta5 = ds.column("eta_trans_d5")
        assert np.all(eta1 >= eta5)

    def test_figure12_threshold_then_linear(self):
        ds = reproduce_figure(12)
        pout = ds.column("P_out_d1_W")
        pin = ds.column("P_in_W")
        assert pout[pin < 40.0].max() == 0.0
        assert pout[-1] > 0.0

    def test_unknown_figure(self):
        with pytest.raises(UnknownFigureError):
            reproduce_figure(5)
        with pytest.raises(UnknownFigureError):
            reproduce_figure(14)

    @pytest.mark.parametrize("fid", [6.0, "6", True], ids=["float", "str", "bool"])
    def test_figure_id_is_an_integer(self, fid):
        # 6.0 would build figure 6 with "6.0" in its provenance; the repr shows the type
        with pytest.raises(UnknownFigureError, match=f"got {re.escape(repr(fid))}$"):
            reproduce_figure(fid)

    def test_numpy_integer_figure_id_gives_the_same_bytes(self):
        assert emit_dataset(reproduce_figure(np.int64(6))) == emit_dataset(reproduce_figure(6))

    def test_all_figures_deterministic(self):
        for fid in range(6, 14):
            a = emit_dataset(reproduce_figure(fid))
            b = emit_dataset(reproduce_figure(fid))
            assert a == b, f"figure {fid} not byte-deterministic"

    @pytest.mark.parametrize("fid", sorted(FIGURE_CSV_SHA256))
    def test_figure_csv_digest_pinned(self, fid):
        digest = hashlib.sha256(emit_dataset(reproduce_figure(fid))).hexdigest()
        assert digest == FIGURE_CSV_SHA256[fid]


class TestPinnedDatasets:
    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("case", sorted(DATASET_CASES))
    def test_dataset_digest_pinned(self, case, fmt):
        build, tokens = DATASET_CASES[case]
        ds = build()
        assert set(ds.flags) - {""} == tokens
        assert hashlib.sha256(emit_dataset(ds, fmt)).hexdigest() == DATASET_SHA256[case][fmt]

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("fid", sorted(FIGURE_R2_3_SHA256))
    def test_figure_digest_pinned_off_default(self, fid, fmt):
        ds = reproduce_figure(fid, R2_3)
        assert hashlib.sha256(emit_dataset(ds, fmt)).hexdigest() == FIGURE_R2_3_SHA256[fid][fmt]

    def test_stability_gate_per_figure(self):
        # figures 9 and 12 zero their series held at d = 5 m; 10 and 13 flag the gap
        assert not is_stable(R2_3.geometry, 5.0)
        for fid, power, ratio in ((9, "P_beam", "eta_trans"), (12, "P_out", "eta_all")):
            ds = reproduce_figure(fid, R2_3)
            assert not ds.column(f"{power}_d5_W").any() and not ds.column(f"{ratio}_d5").any()
            assert ds.column(f"{power}_d1_W")[-1] > 0.0
            # the first nonempty flag wins: figure 9's zero-drive row stays undefined-at-zero
            assert set(ds.flags[1:]) == {"unstable"}
        for fid in (10, 13):
            ds = reproduce_figure(fid, R2_3)
            d = ds.column("d_m")
            assert set(np.array(ds.flags)[(d > 2.94) & (d < 5.18)]) == {"unstable"}


class TestProvenance:
    # the 13 config keys and p_in, with reprs written out by hand: the reference
    # bundle, and one whose values all differ, so two swapped keys show
    REFERENCE = {
        "l": "0.06", "f": "0.88", "r1": "-1.0", "r2": "5.246612466124661", "d": "1.0",
        "a": "0.0007855301511370797", "wavelength": "1.064e-06", "eta_stored": "0.2849",
        "m_overlap": "1.0", "c": "-5.64", "r_out": "0.88", "a1": "0.3487", "b1": "-1.535",
        "p_in": "100.0",
    }
    DISTINCT = {
        "l": "0.07", "f": "0.9", "r1": "-1.1", "r2": "4.0", "d": "2.0", "a": "0.0008",
        "wavelength": "1.07e-06", "eta_stored": "0.3", "m_overlap": "0.95", "c": "-5.0",
        "r_out": "0.85", "a1": "0.35", "b1": "-1.5", "p_in": "90.0",
    }

    def test_every_dataset_embeds_parameters(self, default_params):
        ds = sweep(SweepSpec(variable="d", grid=grid(0.5, 2.0, 5), fixed=default_params))
        assert ds.provenance == {**self.REFERENCE, "variable": "d", "points": "5"}
        text = emit_dataset(ds).decode()
        assert "# a1 = 0.3487" in text
        p = SystemParams(
            geometry=CavityGeometry(l=0.07, f=0.9, r1=-1.1, r2=4.0),
            gain=GainParams(eta_stored=0.3, m_overlap=0.95, c=-5.0, r_out=0.85),
            pv=PvParams(a1=0.35, b1=-1.5), aperture_radius=8e-4, wavelength=1.07e-6,
            d=2.0, p_in=90.0)
        ds = sweep(SweepSpec(variable="P_in", grid=grid(0.0, 50.0, 3), fixed=p))
        assert ds.provenance == {**self.DISTINCT, "variable": "P_in", "points": "3"}


class TestDatasetSerialization:
    def test_csv_shape(self, default_params):
        import json

        ds = sweep(SweepSpec(variable="P_beam", grid=grid(0.0, 30.0, 3), fixed=default_params))
        text = emit_dataset(ds, "csv").decode()
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert comments  # provenance block present
        assert body[0] == "P_beam_W,P_pv_W,eta_pv,flag"
        assert len(body) == 1 + 3
        assert text.endswith("\n") and "\r" not in text
        doc = json.loads(emit_dataset(ds, "json").decode())
        assert set(doc) == {"provenance", "columns", "flag"}
        assert doc["columns"]["P_beam_W"] == [0.0, 15.0, 30.0]

    def test_flagged_rows_never_serialize_nan(self, default_params):
        from resbeam import Dataset

        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="contains NaN or inf"):
                Dataset({"x": np.array([1.0, bad])})

    @pytest.mark.parametrize("flags", [[], ["a"], ["a", "b", "c"]])
    def test_flag_count_must_match_the_rows(self, flags):
        # an empty list is a count like any other, not "all clean"
        with pytest.raises(ValueError, match=f"{len(flags)} flags for 2 rows"):
            Dataset({"x": [1.0, 2.0]}, flags)
        assert Dataset({"x": [1.0, 2.0]}).flags == ["", ""]
        assert Dataset({}, []).n_rows == 0

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError, match="columns have unequal lengths"):
            Dataset({"a": [1.0], "b": [1.0, 2.0]})

    def test_json_never_writes_a_non_standard_constant(self):
        ds = Dataset({"x": np.array([1.0, 2.0])})
        ds.columns["x"][1] = math.inf  # past the checks of construction
        with pytest.raises(ValueError):
            emit_dataset(ds, "json")

    def test_overflowed_rows_read_zero_flagged(self, default_params):
        ds = sweep(SweepSpec("R1", (-1.0, -1e-320, 1e-320), default_params))
        assert ds.flags == ["", "overflow", "overflow"]
        assert ds.column("R1_m")[1:].tolist() == [-1e-320, 1e-320]
        for name in ("g1", "g2", "stable", "d_max_m", "contiguous"):
            assert ds.column(name)[1:].tolist() == [0.0, 0.0]
        assert ds.column("d_max_m")[0] == pytest.approx(10.428834688346878, rel=1e-12)

    def test_rejects_unknown_format(self, default_params):
        ds = sweep(SweepSpec(variable="P_beam", grid=grid(0.0, 30.0, 3), fixed=default_params))
        with pytest.raises(ValueError):
            emit_dataset(ds, "parquet")

    def test_negative_zero_normalized(self):
        from resbeam import Dataset

        ds = Dataset({"x": np.array([-0.0, 1.0])})
        body = emit_dataset(ds, "csv").decode().splitlines()
        assert body[-2].startswith("0,")

    def test_json_keeps_negative_zero(self):
        doc = json.loads(emit_dataset(Dataset({"x": np.array([-0.0, 0.0])}), "json"))
        assert [math.copysign(1.0, v) for v in doc["columns"]["x"]] == [-1.0, 1.0]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1e300, -1e300, 1e-300, -1e-300, 0.1, 123456789.5, 1e16])
    def test_csv_cells_match_per_cell_reference(self, xs):
        lines = emit_dataset(Dataset({"x": np.array(xs)}), "csv").decode().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == [oracles.csv_cell(x) for x in xs]

    # flags that hold the separators, a format directive and the text of a -0.0 cell
    FLAG_TOKENS = ("", "overflow", "a,b", "%s", "%.9g", "-0,", "x-0,y", "d1:unstable;d5:")

    @staticmethod
    @st.composite
    def datasets(draw):
        """(columns, flags, provenance): 1-6 columns of finite floats, -0.0 among them."""
        n = draw(st.integers(0, 20))
        cell = st.one_of(st.just(-0.0), st.just(0.0),
                         st.floats(allow_nan=False, allow_infinity=False))
        columns = {f"c{i}": draw(st.lists(cell, min_size=n, max_size=n))
                   for i in range(draw(st.integers(1, 6)))}
        flags = draw(st.lists(st.sampled_from(TestDatasetSerialization.FLAG_TOKENS),
                              min_size=n, max_size=n))
        return columns, flags, {"note": draw(st.sampled_from(["", "-0,", "%"]))}

    @given(datasets())
    @example(({"x": [], "y": []}, [], {}))
    @example(({"x": [-0.0], "y": [-0.0]}, ["-0,"], {}))
    @example(({"x": [1.0]}, ["-0,"], {"note": "-0,"}))  # "-0," only outside the cells
    @example(({"x": [-0.0, 1e-05, -1e-05, 5e-324], "y": [1.0, -0.0, 0.0, -1e300]},
              ["", "%s", "a,b", ""], {}))
    def test_whole_dataset_matches_per_cell_reference(self, case):
        columns, flags, provenance = case
        ds = Dataset(columns, flags, provenance)
        head = [f"# {k} = {v}" for k, v in sorted(provenance.items())] + [
            ",".join([*columns, "flag"])]
        rows = [",".join([*map(oracles.csv_cell, cells), flag])
                for *cells, flag in zip(*columns.values(), flags)]
        assert emit_dataset(ds, "csv") == "".join(f"{ln}\n" for ln in head + rows).encode()
        doc = {"provenance": dict(sorted(provenance.items())), "columns": columns, "flag": flags}
        assert emit_dataset(ds, "json") == (json.dumps(doc, separators=(",", ":")) + "\n").encode()


class TestColumnDrivers:
    # the scalar kernels a per-row loop calls, by the name each counts under; with numpy
    # loaded, as here, grids evaluate columns instead.  Every reach,
    # max_transmission_distance's and a row's alike, runs the private body cavity._supremum, so its calls on a float R1 (not on an R1
    # column) are what is counted; figure 8's rows run the radii body cavity._radii, not
    # beam_radii.
    SCALAR_KERNELS = {"_supremum": "max_transmission_distance", "is_stable": "is_stable",
                      "g_parameters": "g_parameters", "_radii": "_radii"}

    def count_scalar_calls(self, monkeypatch, build) -> Counter:
        calls = Counter()
        for name, counts_as in self.SCALAR_KERNELS.items():
            def counted(*args, _name=counts_as, _kernel=getattr(resbeam.cavity, name), **kwargs):
                if _name != "max_transmission_distance" or isinstance(args[2], float):
                    calls[_name] += 1
                return _kernel(*args, **kwargs)

            for module in (resbeam.explorer, resbeam.cavity):
                monkeypatch.setattr(module, name, counted, raising=False)
        build()
        monkeypatch.undo()
        return calls

    def test_no_scalar_kernel_calls_per_row(self, monkeypatch, default_params):
        # no sweep calls a scalar kernel: one held at a distance takes f(d) from its rule's row
        spans = {"d": (0.05, 12.0), "P_in": (0.0, 200.0), "P_stored": (0.0, 50.0),
                 "P_beam": (0.0, 30.0), "R1": (-1.6, -0.4)}
        for n in (1000, 200):
            calls = self.count_scalar_calls(monkeypatch, lambda: [
                *(sweep(SweepSpec(v, grid(lo, hi, n), default_params))
                  for v, (lo, hi) in spans.items()),
                *(max_distance_vs_r1(0.06, 0.88, np.linspace(-1.6, -0.4, n), b)
                  for b in BRANCHES)])
            assert calls == Counter()

    @pytest.mark.parametrize("n", [1, 200, 256, 257, 1000])
    def test_loaded_numpy_picks_the_path(self, monkeypatch, default_params, n):
        # a grid of any length runs as columns where numpy is loaded, as rows where it is not
        build = lambda: sweep(SweepSpec("R1", grid(-1.6, -0.4, n), default_params))
        assert self.count_scalar_calls(monkeypatch, build)["max_transmission_distance"] == 0
        with pytest.MonkeyPatch.context() as unloaded:
            unloaded.delitem(sys.modules, "numpy")
            calls = self.count_scalar_calls(monkeypatch, build)
        assert calls["max_transmission_distance"] == n

    def test_figures_run_as_rows(self, monkeypatch):
        # on rows, each row's stability-guarded bodies run only where the row is stable
        figures = {}
        build = lambda: figures.update((fid, reproduce_figure(fid)) for fid in (7, 8))
        with forced("rows"):
            calls = self.count_scalar_calls(monkeypatch, build)
        # figure 8's radii body runs on each stable (branch, row) pair, and on no other
        stable_pairs = sum(2 - flag.count(":unstable") for flag in figures[8].flags)
        assert stable_pairs == 299
        # figure 7's design rows take the closed-form reach (see below), not the generic one
        assert calls["max_transmission_distance"] == 0 and calls["_radii"] == stable_pairs
        # as columns, each branch's radii run once, on the whole column
        assert self.count_scalar_calls(monkeypatch, build) == Counter(_radii=2)

    def count_generic_reaches(self, monkeypatch, build) -> Counter:
        """Calls of the generic reach body cavity._supremum, on rows (a float R1) and on
        columns (an R1 column)."""
        calls = Counter()

        def counted(*args, _body=resbeam.cavity._supremum):
            calls["rows" if isinstance(args[2], float) else "columns"] += 1
            return _body(*args)

        for module in (resbeam.explorer, resbeam.cavity):
            monkeypatch.setattr(module, "_supremum", counted)
        build()
        monkeypatch.undo()
        return calls

    def test_designs_run_no_generic_reach(self, monkeypatch, default_params):
        # a guard against a silent fallback: every connected-branch design (figure 7, the
        # design grids on rows and on columns, the R1 search) takes the closed form
        r1s = grid(-1.6, -0.4, 200)
        build = lambda: [
            reproduce_figure(7), r1_range_for_distance(5.0, 0.06, 0.88, "origin", (-1.5, -0.5)),
            *(max_distance_vs_r1(0.06, 0.88, r1s, b) for b in BRANCHES)]
        for path in ("rows", "columns"):
            with forced(path):
                assert self.count_generic_reaches(monkeypatch, build) == Counter()
        # the fixed-r2 callers keep the generic reach: the R1 sweep, one row or column at a
        # time, and max_transmission_distance
        spec = SweepSpec("R1", r1s, default_params)
        for path, want in (("rows", Counter(rows=200)), ("columns", Counter(columns=1))):
            with forced(path):
                assert self.count_generic_reaches(monkeypatch, lambda: sweep(spec)) == want
        reach = lambda: resbeam.cavity.max_transmission_distance(default_params.geometry)
        assert self.count_generic_reaches(monkeypatch, reach) == Counter(rows=1)
