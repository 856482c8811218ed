"""Rows and columns give the same bytes, and the numbers of the public kernels.

A grid runs its rule on the column kit where numpy is loaded, as it is here,
and on the row kit elsewhere.  Each property here forces one dataset through
both paths and compares the emitted CSV and JSON.  Since the rules no longer
call the public power-chain kernels, the sweeps' rows are also checked against
them.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resbeam import (
    BRANCHES,
    FLAT,
    SWEEP_VARIABLES,
    SweepSpec,
    UnitError,
    emit_dataset,
    explorer,
    gain_to_beam_coefficient,
    max_distance_vs_r1,
    pv_output,
    reference_defaults,
    reproduce_figure,
    sweep,
)
from resbeam.explorer import linspace
from resbeam.powerchain import beam_at, ladder_at

from conftest import forced

REF = reference_defaults()
R1_NEAR_L_MINUS_F = -0.8200000000000066  # within rounding of R1 = l - f
# R1 values where the reach or the design degenerates: zero, l - f and its
# neighbours, and subnormal radii whose g1 overflows
R1_SPECIALS = [0.0, -0.82, R1_NEAR_L_MINUS_F, 1e-320, -1e-320, 5e-324]
SPANS = {"d": (0.0, 15.0), "P_in": (0.0, 300.0), "P_stored": (0.0, 60.0),
         "P_beam": (0.0, 40.0), "R1": (-3.0, 3.0)}


def emitted(build, path):
    with forced(path):
        ds = build()
    return emit_dataset(ds, "csv"), emit_dataset(ds, "json")


def assert_paths_agree(build):
    """build() forced through rows and through columns: the same bytes."""
    assert emitted(build, "rows") == emitted(build, "columns")


@st.composite
def links(draw):
    """Reference links with a stable or unstable held d, thresholds moved, and tiny drives."""
    r1s = [-1.0, -0.9, -1.5, FLAT, R1_NEAR_L_MINUS_F]
    geo = REF.geometry._replace(r1=draw(st.sampled_from(r1s)),
                                r2=draw(st.sampled_from([REF.geometry.r2, 3.0, -5.0, FLAT])))
    return REF._replace(geometry=geo, d=draw(st.floats(0.0, 15.0)),
                        p_in=draw(st.one_of(st.floats(0.0, 300.0), st.just(2.2250738585e-313))),
                        gain=REF.gain._replace(c=draw(st.floats(-10.0, 0.0))),
                        pv=REF.pv._replace(b1=draw(st.floats(-3.0, 0.0))))


def grids(lo, hi, specials=()):
    """Strictly increasing grids: random points, or an even grid of 1, 200 or 1000 points."""
    points = st.floats(lo, hi) if not specials else st.one_of(
        st.floats(lo, hi), st.sampled_from(specials))
    scattered = st.lists(points, min_size=1, max_size=30, unique=True).map(sorted)
    even = st.sampled_from([1, 200, 1000]).map(partial(linspace, lo, hi))
    return st.one_of(scattered, even).map(tuple)


@st.composite
def sweeps(draw):
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    grid = draw(grids(*SPANS[variable], R1_SPECIALS if variable == "R1" else ()))
    return SweepSpec(variable, grid, draw(links()))


@settings(max_examples=150, deadline=None)
@given(sweeps())
@example(SweepSpec("R1", (-1.0, -1e-320, 0.0, 1e-320), REF))  # overflow and invalid rows
@example(SweepSpec("d", (0.0, 5.0, 11.0), REF._replace(p_in=2.2250738585e-313)))
@example(SweepSpec("P_in", tuple(linspace(0.0, 300.0, 200)), REF._replace(d=11.0)))
@example(SweepSpec("P_stored", tuple(linspace(0.0, 60.0, 1000)), REF))
@example(SweepSpec("P_beam", (0.0,), REF))
def test_sweep_rows_equal_columns(spec):
    assert_paths_agree(lambda: sweep(spec))
    if spec.variable == "R1":
        return
    ds = sweep(spec)
    for i, (x, flag) in enumerate(zip(spec.grid, ds.flags)):
        if flag not in ("unstable", "overflow"):  # a row that holds its values
            got = [col[i] for col in list(ds.columns.values())[1:]]
            # repr tells -0.0 from 0.0, which JSON output keeps
            assert list(map(repr, got)) == list(map(repr, kernel_row(spec.variable, x, spec.fixed)))


def kernel_row(variable: str, x: float, p) -> tuple:
    """The value columns of a sweep's row at x, from the public kernels."""
    if variable == "P_beam":
        out = pv_output(x, p.pv)
        return out, out / x if x > 0 else 0.0
    fd = gain_to_beam_coefficient(x if variable == "d" else p.d, p)
    if variable == "P_stored":
        pb = beam_at(x, fd, p.gain)
        return fd, pb, pb / x if x > 0 else 0.0
    (_, ps, pb, po), (_, eta_trans, _, eta_all) = ladder_at(p.p_in if variable == "d" else x, fd, p)
    return (fd, pb, eta_trans, po, eta_all) if variable == "d" else (ps, pb, po, eta_all)


MAX = 1.7976931348623157e308
# the edge link: at m_overlap = 1, a = 1e200 m (no loss) and R this near 1, f(d) rounds to
# 1.0000000000000002, so fd * P_stored is inf at the largest P_stored
EDGE = REF._replace(aperture_radius=1e200, gain=REF.gain._replace(r_out=0.9999999996323156))
# and with eta_stored a hair below 1 the largest drive stores enough to overflow it
OVERFLOWING = EDGE._replace(gain=EDGE.gain._replace(eta_stored=0.9999999999999999), p_in=MAX)
# a*a and wavelength * (l + d) overflow past d = 0.998 m: the loss is inf/inf, so f(d) is NaN
NAN_LOSS = REF._replace(aperture_radius=1e300, wavelength=1.7e308, d=2.0)


@pytest.mark.parametrize("build", [
    lambda: sweep(SweepSpec("d", tuple(linspace(0.0, 15.0, 200)), OVERFLOWING)),
    lambda: sweep(SweepSpec("P_in", tuple(linspace(0.0, MAX, 200)), OVERFLOWING)),
    # figures 12 and 13 drive at most 100 W, so no beam of theirs overflows: the edge is
    # reached by P_stored, and figure 12's held d's read the NaN f(d) below
    lambda: reproduce_figure(12, NAN_LOSS),
    lambda: sweep(SweepSpec("P_stored", tuple(linspace(0.0, MAX, 200)), EDGE)),
    # flags joined across series: overflow rows beside tangent:unstable and clean ones
    lambda: reproduce_figure(8, REF._replace(wavelength=1e308)),
    # f(d) is NaN: along d on the rows past 0.998 m, and at each held d on every row
    lambda: sweep(SweepSpec("d", tuple(linspace(0.0, 15.0, 200)), NAN_LOSS)),
    lambda: sweep(SweepSpec("P_in", tuple(linspace(0.0, 300.0, 200)), NAN_LOSS)),
    lambda: reproduce_figure(9, NAN_LOSS),
    lambda: reproduce_figure(10, NAN_LOSS),  # f(d) reaches no column here, only the flag
    lambda: reproduce_figure(13, NAN_LOSS),
], ids=["sweep-d", "sweep-P_in", "figure-12", "sweep-P_stored", "figure-8-joined",
        "sweep-d-nan-loss", "sweep-P_in-nan-loss", "figure-9-nan-loss",
        "figure-10-nan-loss", "figure-13-nan-loss"])
def test_overflowing_beam_flags_rows_on_both_paths(build):
    # the beam power or f(d) overflows: those rows read zero, flagged, and the dataset is built
    for path in ("rows", "columns"):
        with forced(path):
            ds = build()
        assert "overflow" in ds.flags
        assert all(v == 0.0 for col in list(ds.columns.values())[1:]
                   for v, flag in zip(col, ds.flags) if flag == "overflow")
    assert_paths_agree(build)


def fd_answer(ds) -> tuple:
    """The repr of row 0's f_d, and its flag where f(d) alone sets it."""
    return repr(ds.columns["f_d"][0]), ds.flags[0] if ds.flags[0] in ("unstable", "overflow") else ""


@settings(max_examples=60, deadline=None)
@given(links())
@example(NAN_LOSS)
@example(OVERFLOWING)
def test_held_distance_gives_the_distance_rows_answer(p):
    # one f(d) route: sweep P_stored holds d at p.d, where a one-point sweep d runs; at
    # p_in = 0 and P_stored = 0 the other columns stay finite, so only f(d) can flag a row
    for path in ("rows", "columns"):
        with forced(path):
            held = sweep(SweepSpec("P_stored", (0.0,), p))
            at = sweep(SweepSpec("d", (p.d,), p._replace(p_in=0.0)))
        assert fd_answer(held) == fd_answer(at)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.03, 0.12), st.sampled_from([0.88, 0.5, 2.0, FLAT]),
       grids(-3.0, 3.0, R1_SPECIALS + [0.06 - 0.5, 0.06 - 2.0]), st.sampled_from(BRANCHES))
@example(0.06, 0.88, (-1.5, -1.0, R1_NEAR_L_MINUS_F, -0.82, -0.7, 0.0, 1e-320), "origin")
@example(0.06, 0.88, (-1.5, -1.0, R1_NEAR_L_MINUS_F, -0.82, -0.7, 0.0, 1e-320), "tangent")
@example(0.88, 0.88, (-1.0, 1.0), "tangent")  # l = f: no branch has a slope
def test_design_grid_rows_equal_columns(l, f, grid, branch):
    assert_paths_agree(lambda: max_distance_vs_r1(l, f, grid, branch))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(explorer.FIGURE_IDS), links())
@example(8, REF._replace(geometry=REF.geometry._replace(r2=3.0)))
@example(12, REF._replace(geometry=REF.geometry._replace(r2=3.0)))
@example(9, REF._replace(gain=REF.gain._replace(c=0.0)))
def test_figure_rows_equal_columns(fid, p):
    assert_paths_agree(lambda: reproduce_figure(fid, p))


@given(st.floats(-1e6, 1e6), st.floats(1e-300, 1e6), st.integers(1, 600))
@example(0.0, 5e-324, 3)  # the step underflows to 0
@example(-5e-324, 1e-323, 5)
@example(-0.0, 1.0, 1)
@example(-1e308, 1.7e308, 4)  # the span overflows
def test_linspace_is_numpy_linspace(lo, span, n):
    hi = lo + span
    if not lo < hi:
        return
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, n).tolist()
    assert list(map(repr, linspace(lo, hi, n))) == list(map(repr, want))


def test_underflowing_step_fails_as_numpy_grids_did():
    # three points over one subnormal step: the first two coincide
    with pytest.raises(UnitError, match=r"grid: must be strictly increasing, got \(0.0, 0.0\)"):
        SweepSpec("d", tuple(linspace(0.0, 5e-324, 3)), REF)
