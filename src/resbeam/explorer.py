"""Design-space exploration: sweeps, figures and the R1 design grid.

The point solvers ``required_input_power`` and ``calibrate_aperture`` live in
:mod:`resbeam.powerchain`, and the R1 design search ``r1_range_for_distance``
in :mod:`resbeam.cavity`; all three are re-exported here under the same names.

A grid of up to ROWS_MAX points runs row by row, without numpy, on the scalar
kernels, whose exceptions become the row flags, and on the private
connected-r2 and reach bodies of :mod:`resbeam.cavity`, which return theirs:
every figure (200 points) and the CLI's default sweeps run so.  A longer grid
runs as columns through :mod:`resbeam.columns`, with the same bits.  Rows that
cannot be evaluated (unstable cavity, no branch solution, ratios at zero input)
carry zeros plus a flag token rather than being dropped.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

from .cavity import (
    BRANCHES,
    _check_l_f,
    _connected_r2,
    _g_terms,
    _reach,
    beam_radii,
    connecting_r2,
    is_stable,
    r1_range_for_distance,
)
from .config import SWEEP_VARIABLES, provenance_for, reference_defaults
from .dataset import Dataset, _floats
from .errors import (
    ResbeamError,
    UnknownFigureError,
    UnstableConfigurationError,
    require,
)
from .powerchain import (
    SystemParams,
    beam_at,
    calibrate_aperture,
    gain_to_beam_coefficient,
    ladder_at,
    pv_output,
    required_input_power,
    stored_power,
)

FIGURE_IDS = tuple(range(6, 14))

# Grids of up to this many points run as rows, longer ones as columns.  With
# numpy loaded, columns overtake rows at 20 to 50 points, but at 256 points rows
# lose at most 6 ms, and save a CLI process its numpy import (about 100 ms).
ROWS_MAX = 256


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a strictly increasing finite grid (>= 0 but for R1), rest fixed."""

    variable: str
    grid: tuple[float, ...]
    fixed: SystemParams

    def __post_init__(self):
        v = self.variable
        require("variable", v, v in SWEEP_VARIABLES, f"one of {SWEEP_VARIABLES}")
        grid = _checked_grid(v, self.grid)
        if not all(map(float.__lt__, grid, grid[1:])):  # name the first pair out of order
            pair = next(q for q in zip(grid, grid[1:]) if q[0] >= q[1])
            require("grid", pair, False, "strictly increasing")


def _checked_grid(variable: str, points) -> list[float]:
    """The points as a nonempty list of floats, each finite, and >= 0 but for R1."""
    try:
        grid = _floats(points)
    except TypeError:  # not a sequence, or a nested one
        grid = []
    require("grid", points, len(grid) > 0, "a nonempty sequence of numbers")
    signed = variable == "R1"
    if not (all(map(math.isfinite, grid)) and (signed or min(grid) >= 0)):
        bad = next(x for x in grid if not (math.isfinite(x) and (signed or x >= 0)))
        require("grid", bad, False, "finite" if signed else "finite and >= 0")
    return grid


class Rule(NamedTuple):
    """A series: ``row(x)`` gives (values, flag) at one grid point on the scalar kernels,
    ``columns(xs)`` (value columns, flags) with the same bits.  Values may be a prefix of
    the value columns; the rest read zero.  Figures (200 points) have no column form."""

    row: Callable[[float], tuple]
    columns: Callable | None = None


def _column_rule(name: str, *args):
    """resbeam.columns.<name>(*args), the grid column last; numpy loads here."""
    from . import columns

    return getattr(columns, name)(*args)


def _tagged(name: str, tag: str) -> str:
    """Series column name: the tag goes before a unit suffix (P_beam_W -> P_beam_d1_W)."""
    if not tag:
        return name
    stem, _, unit = name.rpartition("_")
    return f"{stem}_{tag}_{unit}" if unit in ("W", "m") else f"{name}_{tag}"


def _joined(flag: str, tag: str, mark: str, join: bool) -> str:
    """A row's flag after one more series' mark (see _tabulate)."""
    if join and mark:
        return f"{flag};{tag}:{mark}" if flag else f"{tag}:{mark}"
    return flag or mark


def _by_rows(xs: list[float], width: int, rules: dict[str, Rule], join: bool):
    """(columns, flags) of the rules' row forms; an overflowed row reads zero."""
    rows, flags = [], []
    for x in xs:
        row, flag = [x], ""
        for tag, rule in rules.items():
            values, mark = rule.row(x)
            row += (*values, *[0.0] * (width - len(values)))
            flag = _joined(flag, tag, mark, join)
        if not all(map(math.isfinite, row)):
            row, flag = [x] + [0.0] * (len(row) - 1), "overflow"
        rows.append(row)
        flags.append(flag)
    return list(zip(*rows)), flags


def _by_columns(xs: list[float], width: int, rules: dict[str, Rule], join: bool):
    """(columns, flags) of the rules' column forms; numpy loads here."""
    import numpy as np

    grid = np.array(xs)
    table, flags = [grid], None
    for tag, rule in rules.items():
        values, marks = rule.columns(grid)
        table += [*values, *(np.zeros(len(xs)) for _ in range(width - len(values)))]
        flags = marks if flags is None and not join else [  # one series: its own marks
            _joined(a, tag, m, join) for a, m in zip(flags or [""] * len(xs), marks)]
    finite = np.logical_and.reduce([np.isfinite(v) for v in table])
    if not finite.all():
        table = [grid] + [np.where(finite, v, 0.0) for v in table[1:]]
        flags = [m if ok else "overflow" for m, ok in zip(flags, finite.tolist())]
    return table, flags


def _tabulate(xs: list[float], x_col, value_cols, rules: dict, provenance, join=False) -> Dataset:
    """Evaluate each series' rule on the grid xs into one Dataset.

    ``rules`` maps a series tag to its rule; each series fills its own tagged
    copy of ``value_cols``.  When several series flag a row, ``join`` joins
    ``tag:flag`` tokens with ';'; otherwise the first nonempty flag wins.  A row
    with a value that overflowed to +-inf reads zero, flagged ``overflow``.
    """
    tabulate = _by_columns if len(xs) > ROWS_MAX else _by_rows
    table, flags = tabulate(xs, len(value_cols), rules, join)
    names = [x_col] + [_tagged(c, tag) for tag in rules for c in value_cols]
    return Dataset(dict(zip(names, table)), flags, provenance)


def _below(out: float, drive: float) -> str:
    return "below-threshold" if out == 0.0 and drive > 0 else ""


def _per_drive(out: float, drive: float, below=False) -> tuple:
    """((out, out/drive), flag) of a stage: the ratio reads 0 and the flag undefined-at-zero at
    zero drive, and with `below`, a driven row with no output is flagged below-threshold."""
    flag = "undefined-at-zero" if drive == 0.0 else _below(out, drive) if below else ""
    return (out, out / drive if drive > 0 else 0.0), flag


_UNSTABLE = Rule(lambda x: ((), "unstable"), lambda xs: ((), ["unstable"] * len(xs)))


def _held(p: SystemParams, d: float, row: Callable, columns: str = "") -> Rule:
    """row with fd = f(d) for a series held at d; if d is unstable, every row zero, flagged."""
    if not is_stable(p.geometry, d):
        return _UNSTABLE
    fd = gain_to_beam_coefficient(d, p)
    return Rule(partial(row, fd=fd), columns and partial(_column_rule, columns, p, fd))


def _distance_rule(p: SystemParams, at: Callable, columns: str = "") -> Rule:
    """Rule d -> at(f(d)) at stable distances; unstable rows read zero, flagged."""
    def row(d):
        return at(gain_to_beam_coefficient(d, p)) if is_stable(p.geometry, d) else _UNSTABLE.row(d)

    return Rule(row, columns and partial(_column_rule, columns, p))


def _reach_row(l: float, f: float, r1: float, r2: float) -> tuple[float, float, str]:
    """(d_max, contiguous as 1.0 or 0.0, flag); an unbounded or empty reach reads zero, flagged."""
    d_max, contiguous, flag = _reach(l, f, r1, r2)
    return (0.0, 0.0, flag) if flag else (d_max, float(contiguous), "")


def _design_rule(l: float, f: float, branch: str, keep=slice(None)) -> Rule:
    """R1 -> (R2, d_max, contiguous)[keep] of the connected-branch designs."""
    require("branch", branch, branch in BRANCHES, f"one of {BRANCHES}")
    _check_l_f(l, f)

    def row(r1):
        r2 = _connected_r2(l, f, r1, branch)
        if isinstance(r2, ResbeamError):  # no design, or an R1 or R2 that is no element
            return (), "no-solution"
        d_max, contiguous, flag = _reach_row(l, f, r1, r2)
        return (r2, d_max, contiguous)[keep], flag

    return Rule(row, partial(_column_rule, "design_rule", l, f, branch, keep))


def _d_rule(p: SystemParams) -> Rule:
    def at(fd):
        (_, _, pb, po), (_, eta_trans, _, eta_all) = ladder_at(p.p_in, fd, p)
        return (fd, pb, eta_trans, po, eta_all), _below(po, p.p_in)

    return _distance_rule(p, at, "d_rule")


def _p_in_rule(p: SystemParams) -> Rule:
    def row(p_in, fd):
        (_, ps, pb, po), (_, _, _, eta_all) = ladder_at(p_in, fd, p)
        return (ps, pb, po, eta_all), _below(po, p_in)

    return _held(p, p.d, row, "p_in_rule")


def _p_stored_rule(p: SystemParams) -> Rule:
    def row(ps, fd):
        values, flag = _per_drive(beam_at(ps, fd, p.gain), ps, below=True)
        return (fd, *values), flag

    return _held(p, p.d, row, "p_stored_rule")


def _r1_rule(p: SystemParams) -> Rule:
    l, f, r2, d = p.geometry.l, p.geometry.f, p.geometry.r2, p.d

    def row(r1):
        if r1 == 0.0:  # the grid is finite, so the one R1 CavityGeometry rejects
            return (), "invalid-r1"
        _, g1, g2 = _g_terms(l, f, r1, r2, d)
        d_max, contiguous, flag = _reach_row(l, f, r1, r2)
        return (g1, g2, float(0.0 < g1 * g2 < 1.0), d_max, contiguous), flag

    return Rule(row, partial(_column_rule, "r1_rule", p))


# variable -> (x column, value columns, rule for the fixed parameters)
_SWEEPS = {
    "d": ("d_m", ("f_d", "P_beam_W", "eta_trans", "P_out_W", "eta_all"), _d_rule),
    "P_in": ("P_in_W", ("P_stored_W", "P_beam_W", "P_out_W", "eta_all"), _p_in_rule),
    "P_stored": ("P_stored_W", ("f_d", "P_beam_W", "eta_trans"), _p_stored_rule),
    "P_beam": ("P_beam_W", ("P_pv_W", "eta_pv"),
               lambda p: Rule(lambda pb: _per_drive(pv_output(pb, p.pv), pb, below=True),
                              partial(_column_rule, "p_beam_rule", p))),
    "R1": ("R1_m", ("g1", "g2", "stable", "d_max_m", "contiguous"), _r1_rule),
}


def sweep(spec: SweepSpec) -> Dataset:
    """Evaluate the relevant model quantities at every grid point.

    Per-point domain errors become row flags; the sweep itself never aborts.
    Output row order matches the grid, independent of evaluation order.
    """
    x_col, value_cols, rule_for = _SWEEPS[spec.variable]
    prov = provenance_for(spec.fixed, variable=spec.variable, points=len(spec.grid))
    return _tabulate(_floats(spec.grid), x_col, value_cols, {"": rule_for(spec.fixed)}, prov)


def max_distance_vs_r1(
    l: float, f: float, r1_grid, branch: str, *, params: SystemParams | None = None
) -> Dataset:
    """Solve connecting_r2 then max_transmission_distance along an R1 grid.

    Rows where no branch solution or no stable region exists carry zeros and
    a flag instead of aborting the sweep; an invalid l, f or branch, or a
    non-finite R1, raises.
    """
    base = params if params is not None else reference_defaults()
    grid = _checked_grid("R1", r1_grid)
    prov = provenance_for(base, variable="R1", branch=branch, points=len(grid))
    prov |= {"l": repr(l), "f": repr(f)}
    return _tabulate(grid, "R1_m", ("R2_m", "d_max_m", "contiguous"),
                     {"": _design_rule(l, f, branch)}, prov)


# ---------------------------------------------------------------------------
# Figure reproduction


def _fig8(p: SystemParams, prov: dict) -> dict[str, Rule]:
    def radii(geom, d):
        try:
            r = beam_radii(geom, d, p.wavelength)
        except UnstableConfigurationError:
            return (), "unstable"
        return (r.w_gain, r.w_m1, r.w_m2), ""

    rules = {}
    for branch in BRANCHES:
        r2 = connecting_r2(p.geometry.l, p.geometry.f, p.geometry.r1, branch)
        prov[f"r2_{branch}"] = repr(r2)
        rules[branch] = Rule(partial(radii, replace(p.geometry, r2=r2)))
    return rules


def _beams(ps: float, fd: float, p: SystemParams) -> tuple:
    """((P_beam, eta_trans), flag) at stored power ps and slope fd."""
    return _per_drive(beam_at(ps, fd, p.gain), ps)


def _outputs(p_in: float, fd: float, p: SystemParams) -> tuple:
    """((P_out, eta_all), "") of the ladder at input power p_in and slope fd."""
    (_, _, _, p_out), (_, _, _, eta_all) = ladder_at(p_in, fd, p)
    return (p_out, eta_all), ""


# id -> (grid ends, x column, value columns per series, join flags,
#        series(params, provenance) -> {tag: rule}; the tag "" is one untagged series)
_FIGURES = {
    6: ((0.0, 100.0), "P_in_W", ("P_stored_W",), False,
        lambda p, prov: {"": Rule(lambda p_in: ((stored_power(p_in, p.gain),), ""))}),
    7: ((-1.5, -0.5), "R1_m", ("d_max_m",), True,  # d_max only, of (R2, d_max, contiguous)
        lambda p, prov: {f"l{mm}_{b}": _design_rule(mm / 1000.0, p.geometry.f, b, slice(1, 2))
                         for mm in (60, 80, 100) for b in BRANCHES}),
    8: ((0.1, 10.4), "d_m", ("w_gain_m", "w_m1_m", "w_m2_m"), True, _fig8),
    9: ((0.0, 50.0), "P_stored_W", ("P_beam_W", "eta_trans"), False,
        lambda p, prov: {f"d{d:g}": _held(p, d, partial(_beams, p=p)) for d in (1.0, 5.0)}),
    10: ((1.0, 10.0), "d_m", ("P_beam_W", "eta_trans"), False,
         lambda p, prov: {f"ps{ps:g}": _distance_rule(p, partial(_beams, ps, p=p))
                          for ps in (10.0, 20.0, 30.0)}),
    11: ((0.0, 30.0), "P_beam_W", ("P_pv_W", "eta_pv"), False,
         lambda p, prov: {"": Rule(lambda pb: _per_drive(pv_output(pb, p.pv), pb))}),
    12: ((0.0, 100.0), "P_in_W", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"d{d:g}": _held(p, d, partial(_outputs, p=p)) for d in (1.0, 5.0)}),
    13: ((1.0, 10.0), "d_m", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"pin{pin:g}": _distance_rule(p, partial(_outputs, pin, p=p))
                          for pin in (50.0, 80.0, 100.0)}),
}


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """numpy.linspace(lo, hi, n) bit for bit, without numpy; n >= 1."""
    if n == 1:
        return [0.0 * (hi - lo) + lo]
    step = (hi - lo) / (n - 1)  # numpy scales a subnormal span by i/(n-1) first
    out = [i * step + lo if step else i / (n - 1) * (hi - lo) + lo for i in range(n)]
    out[-1] = hi
    return out


def reproduce_figure(figure_id: int, params: SystemParams | None = None) -> Dataset:
    """Emit the sweep behind one of the numerical-study figures (ids 6..13).

    6: stored power vs input power (slope eta_stored through the origin).
    7: max distance vs R1, both branches, transmitter sizes 60/80/100 mm.
    8: mode radii vs distance on both connected branches.
    9: beam power and transfer efficiency vs stored power at d = 1, 5 m.
    10: beam power and transfer efficiency vs distance at 10/20/30 W stored.
    11: PV output and efficiency vs beam power.
    12: output power and end-to-end efficiency vs input power at d = 1, 5 m.
    13: output power and end-to-end efficiency vs distance at 50/80/100 W in.
    """
    p = params if params is not None else reference_defaults()
    if figure_id not in _FIGURES:
        raise UnknownFigureError(f"figure id must be in 6..13, got {figure_id}")
    (lo, hi), x_col, value_cols, join, series = _FIGURES[figure_id]
    prov = provenance_for(p, figure=figure_id)
    return _tabulate(linspace(lo, hi, 200), x_col, value_cols, series(p, prov), prov, join)
