"""Rows and columns give the same bytes.

A grid of up to ``explorer.ROWS_MAX`` points runs row by row on the scalar
kernels, a longer one as columns on the column kernels.  Each property here
forces one dataset through both paths and compares the emitted CSV and JSON.
Figures have no column form in the library, so their column path is built
here from the column kernels, as the figures were built before they ran as rows.
"""

import math
from dataclasses import replace
from functools import partial
from unittest.mock import patch

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
    cavity,
    columns,
    connecting_r2,
    emit_dataset,
    explorer,
    gain_to_beam_coefficient,
    is_stable,
    max_distance_vs_r1,
    reference_defaults,
    reproduce_figure,
    sweep,
)
from resbeam.config import provenance_for
from resbeam.explorer import ROWS_MAX, Rule, linspace

REF = reference_defaults()
R1_UNBOUNDED = -0.8200000000000066  # within rounding of R1 = l - f
# R1 values where the reach or the design degenerates: zero, l - f and its
# neighbours, and subnormal radii whose g1 overflows
R1_SPECIALS = [0.0, -0.82, R1_UNBOUNDED, 1e-320, -1e-320, 5e-324]
SPANS = {"d": (0.0, 15.0), "P_in": (0.0, 300.0), "P_stored": (0.0, 60.0),
         "P_beam": (0.0, 40.0), "R1": (-3.0, 3.0)}


def emitted(build, rows_max):
    with patch.object(explorer, "ROWS_MAX", rows_max):
        ds = build()
    return emit_dataset(ds, "csv"), emit_dataset(ds, "json")


def assert_paths_agree(build):
    """build() forced through rows and through columns: the same bytes."""
    assert emitted(build, math.inf) == emitted(build, -1)


@st.composite
def links(draw):
    """Reference links with a stable or unstable held d, thresholds moved, and tiny drives."""
    geo = replace(REF.geometry, r1=draw(st.sampled_from([-1.0, -0.9, -1.5, FLAT, R1_UNBOUNDED])),
                  r2=draw(st.sampled_from([REF.geometry.r2, 3.0, -5.0, FLAT])))
    return replace(REF, geometry=geo, d=draw(st.floats(0.0, 15.0)),
                   p_in=draw(st.one_of(st.floats(0.0, 300.0), st.just(2.2250738585e-313))),
                   gain=replace(REF.gain, c=draw(st.floats(-10.0, 5.0))),
                   pv=replace(REF.pv, b1=draw(st.floats(-3.0, 3.0))))


def grids(lo, hi, specials=()):
    """Strictly increasing grids: random points, or an even grid of 1, ROWS_MAX or ROWS_MAX + 1."""
    points = st.floats(lo, hi) if not specials else st.one_of(
        st.floats(lo, hi), st.sampled_from(specials))
    scattered = st.lists(points, min_size=1, max_size=30, unique=True).map(sorted)
    even = st.sampled_from([1, ROWS_MAX, ROWS_MAX + 1]).map(partial(linspace, lo, hi))
    return st.one_of(scattered, even).map(tuple)


@st.composite
def sweeps(draw):
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    grid = draw(grids(*SPANS[variable], R1_SPECIALS if variable == "R1" else ()))
    return SweepSpec(variable, grid, draw(links()))


@settings(max_examples=150, deadline=None)
@given(sweeps())
@example(SweepSpec("R1", (-1.0, -1e-320, 0.0, 1e-320), REF))  # overflow and invalid rows
@example(SweepSpec("d", (0.0, 5.0, 11.0), replace(REF, p_in=2.2250738585e-313)))
@example(SweepSpec("P_in", tuple(linspace(0.0, 300.0, ROWS_MAX)), replace(REF, d=11.0)))
@example(SweepSpec("P_stored", tuple(linspace(0.0, 60.0, ROWS_MAX + 1)), REF))
@example(SweepSpec("P_beam", (0.0,), REF))
def test_sweep_rows_equal_columns(spec):
    assert_paths_agree(lambda: sweep(spec))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.03, 0.12), st.sampled_from([0.88, 0.5, 2.0, FLAT]),
       grids(-3.0, 3.0, R1_SPECIALS + [0.06 - 0.5, 0.06 - 2.0]), st.sampled_from(BRANCHES))
@example(0.06, 0.88, (-1.5, -1.0, R1_UNBOUNDED, -0.82, -0.7, 0.0, 1e-320), "origin")
@example(0.06, 0.88, (-1.5, -1.0, R1_UNBOUNDED, -0.82, -0.7, 0.0, 1e-320), "tangent")
@example(0.88, 0.88, (-1.0, 1.0), "tangent")  # l = f: no branch has a slope
def test_design_grid_rows_equal_columns(l, f, grid, branch):
    assert_paths_agree(lambda: max_distance_vs_r1(l, f, grid, branch))


def column_series(fid: int, p) -> dict:
    """Each series of a figure as a column rule on the column kernels."""
    geo, gain = p.geometry, p.gain

    def clean(xs):
        return [""] * len(xs)

    def held(d, values):  # values(fd, xs) at the slope of a held distance
        if not is_stable(geo, d):
            return lambda xs: ((), ["unstable"] * len(xs))
        return partial(values, gain_to_beam_coefficient(d, p))

    def at_distance(values):  # values(fd column) where stable, else zero, flagged
        def rule(d):
            stable = columns.stable_columns(geo.l, geo.f, geo.r1, geo.r2, d)
            fd = columns.gain_to_beam_column(d, p)
            flags = columns._flags(len(d), (~stable, "unstable"))
            return columns._masked(stable, values(fd)), flags

        return rule

    def radii(r2, d):
        args = geo.l, geo.f, geo.r1, r2, d
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # unstable rows
            g = cavity._g_terms(*args)
            gg = g[1] * g[2]
            w = cavity._radii(*args, g, p.wavelength / math.pi, np.sqrt)
        stable = (0.0 < gg) & (gg < 1.0)
        return columns._masked(stable, w), columns._flags(len(d), (~stable, "unstable"))

    def outputs(p_in, fd):
        lad = columns.ladder_columns(p_in, fd, p)
        return lad.p_out, lad.eta_all

    def beams(ps, fd):
        pb = columns.beam_column(ps, fd, gain)
        return pb, columns.ratio_column(pb, ps)

    series = {
        6: lambda: {"": lambda x: ((columns.stored_column(x, gain),), clean(x))},
        7: lambda: {f"l{mm}_{b}": partial(columns.design_rule, mm / 1000.0, geo.f, b, slice(1, 2))
                    for mm in (60, 80, 100) for b in BRANCHES},
        8: lambda: {b: partial(radii, connecting_r2(geo.l, geo.f, geo.r1, b)) for b in BRANCHES},
        9: lambda: {f"d{d:g}": held(d, lambda fd, ps: columns._per_drive(
            columns.beam_column(ps, fd, gain), ps)) for d in (1.0, 5.0)},
        10: lambda: {f"ps{ps:g}": at_distance(partial(beams, ps)) for ps in (10.0, 20.0, 30.0)},
        11: lambda: {"": lambda pb: columns._per_drive(columns.pv_column(pb, p.pv), pb)},
        12: lambda: {f"d{d:g}": held(d, lambda fd, x: (outputs(x, fd), clean(x)))
                     for d in (1.0, 5.0)},
        13: lambda: {f"pin{pin:g}": at_distance(partial(outputs, pin))
                     for pin in (50.0, 80.0, 100.0)},
    }
    return series[fid]()


def figure_by_columns(fid: int, p):
    """reproduce_figure(fid, p) with its series forced through the column path."""
    (lo, hi), x_col, value_cols, join, series = explorer._FIGURES[fid]
    prov = provenance_for(p, figure=fid)
    rules = series(p, prov)
    col_rules = column_series(fid, p)
    assert list(col_rules) == list(rules)
    rules = {tag: Rule(rule.row, col_rules[tag]) for tag, rule in rules.items()}
    with patch.object(explorer, "ROWS_MAX", -1):
        return explorer._tabulate(linspace(lo, hi, 200), x_col, value_cols, rules, prov, join)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(explorer.FIGURE_IDS), links())
@example(8, replace(REF, geometry=replace(REF.geometry, r2=3.0)))
@example(12, replace(REF, geometry=replace(REF.geometry, r2=3.0)))
@example(9, replace(REF, gain=replace(REF.gain, c=2.0)))
def test_figure_rows_equal_columns(fid, p):
    rows = reproduce_figure(fid, p)
    cols = figure_by_columns(fid, p)
    for fmt in ("csv", "json"):
        assert emit_dataset(rows, fmt) == emit_dataset(cols, fmt)


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
