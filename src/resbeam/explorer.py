"""Design-space exploration: sweeps, figures and the R1 design grid.

The point solvers ``required_input_power`` and ``calibrate_aperture`` live in
:mod:`resbeam.powerchain`, and the R1 design search ``r1_range_for_distance``
in :mod:`resbeam.cavity`; all three are re-exported here under the same names.

Every sweep and figure evaluates its grid as whole columns through the column
kernels of :mod:`resbeam.columns`, which equal the scalar kernels bit for
bit: identical inputs produce bit-identical Datasets.  Rows that cannot be
evaluated (unstable cavity, no branch solution, ratios at zero input) carry
zeros plus a flag token rather than being dropped.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cavity import BRANCHES, connecting_r2, r1_range_for_distance
from .columns import (
    beam_column,
    beam_radii_columns,
    connecting_r2_columns,
    g_columns,
    gain_to_beam_column,
    ladder_columns,
    max_distance_columns,
    pv_column,
    ratio_column,
    stable_columns,
    stored_column,
    valid_elements,
)
from .config import SWEEP_VARIABLES, provenance_for, reference_defaults
from .dataset import Dataset
from .errors import UnknownFigureError
from .powerchain import (
    SystemParams,
    calibrate_aperture,
    gain_to_beam_coefficient,
    required_input_power,
)

FIGURE_IDS = tuple(range(6, 14))


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a strictly increasing finite grid (>= 0 but for R1), rest fixed."""

    variable: str
    grid: tuple[float, ...]
    fixed: SystemParams

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        grid = _checked_grid(self.variable, self.grid)
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")


def _checked_grid(variable: str, points) -> np.ndarray:
    """The points as a nonempty float column, each finite, and >= 0 but for R1."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError("grid must be a nonempty sequence of numbers")
    signed = variable == "R1"
    bad = ~np.isfinite(grid) if signed else ~((grid >= 0) & np.isfinite(grid))
    if bad.any():
        i = int(np.argmax(bad))
        rule = "finite" if signed else "finite and >= 0"
        raise ValueError(f"grid of {variable} must be {rule}, got {grid[i]} at index {i}")
    return grid


# A column rule maps the grid column to (value columns, flags): arrays that
# read zero on rows without a value, and one flag token per row ("" when
# clean).  A rule may return a prefix of its value columns; the rest read zero.
Rule = Callable[[np.ndarray], tuple[Sequence[np.ndarray], list[str]]]


def _tagged(name: str, tag: str) -> str:
    """Series column name: the tag goes before a unit suffix (P_beam_W -> P_beam_d1_W)."""
    if not tag:
        return name
    stem, _, unit = name.rpartition("_")
    return f"{stem}_{tag}_{unit}" if unit in ("W", "m") else f"{name}_{tag}"


def _tabulate(xs, x_col, value_cols, rules: dict[str, Rule], provenance, join=False):
    """Evaluate each series' column rule on the grid column xs into one Dataset.

    ``rules`` maps a series tag to its rule; each series fills its own tagged
    copy of ``value_cols``.  When several series flag a row, ``join`` joins
    ``tag:flag`` tokens with ';'; otherwise the first nonempty flag wins.  A row
    with a value that overflowed to +-inf reads zero, flagged ``overflow``.
    """
    n = len(xs)
    columns = {x_col: xs}
    flags = None
    for tag, rule in rules.items():
        values, marks = rule(xs)
        values = [*values, *(np.zeros(n) for _ in value_cols[len(values):])]
        columns.update((_tagged(c, tag), v) for c, v in zip(value_cols, values))
        if join:
            marks = [f"{tag}:{m}" if m else "" for m in marks]
        if flags is None:
            flags = marks
        else:
            flags = [f"{a};{m}" if a and m and join else a or m for a, m in zip(flags, marks)]
    finite = np.logical_and.reduce([np.isfinite(v) for v in columns.values()])
    if not finite.all():
        columns = {k: v if k == x_col else np.where(finite, v, 0.0) for k, v in columns.items()}
        flags = [m if ok else "overflow" for m, ok in zip(flags, finite.tolist())]
    return Dataset(columns, flags, provenance)


# Column helpers shared by sweeps, figures and the R1 design grid

# flag of each reach status, indexed by REACH_OK, REACH_NO_STABLE_REGION, REACH_UNBOUNDED
_REACH_FLAGS = np.array(["", "no-stable-region", "unbounded"], dtype=object)


def _flags(n: int, *marks: tuple[np.ndarray, str]) -> list[str]:
    """One flag per row from (mask, token) pairs; the first pair whose mask holds wins."""
    out = np.full(n, "", dtype=object)
    for mask, token in reversed(marks):
        out[mask] = token
    return out.tolist()


def _unstable(xs: np.ndarray) -> tuple[tuple, list[str]]:
    return (), ["unstable"] * len(xs)


def _masked(keep: np.ndarray, values) -> list[np.ndarray]:
    """The value columns with the rows outside `keep` set to zero."""
    return [np.where(keep, v, 0.0) for v in values]


def _below(out: np.ndarray, drive) -> np.ndarray:
    return (out == 0.0) & (drive > 0)


def _stable_at(p: SystemParams, d) -> np.ndarray:
    geo = p.geometry
    return stable_columns(geo.l, geo.f, geo.r1, geo.r2, d)


def _per_drive(out: np.ndarray, drive: np.ndarray, below=False) -> tuple[tuple, list[str]]:
    """(out, out/drive) of a stage along its drive column.

    Zero-drive rows are flagged undefined-at-zero; with `below`, driven rows
    with zero output are flagged below-threshold.
    """
    marks = [(drive == 0.0, "undefined-at-zero")]
    if below:
        marks.append((_below(out, drive), "below-threshold"))
    return (out, ratio_column(out, drive)), _flags(len(drive), *marks)


def _distance_rule(p: SystemParams, values_at: Callable[[np.ndarray], tuple]) -> Rule:
    """Rule d -> values_at(f(d)) at stable distances; unstable rows read zero, flagged."""
    def rule(d):
        stable = _stable_at(p, d)
        return _masked(stable, values_at(gain_to_beam_column(d, p))), _flags(
            len(d), (~stable, "unstable"))

    return rule


def _design_columns(l: float, f: float, branch: str, keep=slice(None)) -> Rule:
    """R1 -> (R2, d_max, contiguous)[keep] of the connected-branch designs."""
    def rule(r1):
        r2, solvable = connecting_r2_columns(l, f, r1, branch)
        reach = max_distance_columns(l, f, r1, r2)
        values = (r2, reach.d_max, reach.contiguous.astype(float))[keep]
        return _masked(solvable, values), np.where(
            solvable, _REACH_FLAGS[reach.status], "no-solution").tolist()

    return rule


def _d_rule(p: SystemParams) -> Rule:
    def rule(d):
        stable = _stable_at(p, d)
        fd = gain_to_beam_column(d, p)
        lad = ladder_columns(p.p_in, fd, p)
        values = (fd, lad.p_beam, lad.eta_trans, lad.p_out, lad.eta_all)
        return _masked(stable, values), _flags(
            len(d), (~stable, "unstable"), (_below(lad.p_out, p.p_in), "below-threshold"))

    return rule


def _held(p: SystemParams, d: float, rule: Callable[..., tuple]) -> Rule:
    """rule with fd = f(d) for a series held at d; if d is unstable, every row zero, flagged."""
    return partial(rule, fd=gain_to_beam_coefficient(d, p)) if _stable_at(p, d) else _unstable


def _p_in_rule(p: SystemParams) -> Rule:
    def rule(p_in, fd):
        lad = ladder_columns(p_in, fd, p)
        values = (lad.p_stored, lad.p_beam, lad.p_out, lad.eta_all)
        return values, _flags(len(p_in), (_below(lad.p_out, p_in), "below-threshold"))

    return _held(p, p.d, rule)


def _p_stored_rule(p: SystemParams) -> Rule:
    def rule(ps, fd):
        values, flags = _per_drive(beam_column(ps, fd, p.gain), ps, below=True)
        return (np.full(len(ps), fd), *values), flags

    return _held(p, p.d, rule)


def _r1_rule(p: SystemParams) -> Rule:
    geo = p.geometry

    def rule(r1):
        valid = valid_elements(r1)  # as CavityGeometry checks r1
        with np.errstate(divide="ignore", invalid="ignore"):  # invalid rows, masked below
            _, g1, g2 = g_columns(geo.l, geo.f, r1, geo.r2, p.d)
            stable = stable_columns(geo.l, geo.f, r1, geo.r2, p.d)
            reach = max_distance_columns(geo.l, geo.f, r1, geo.r2)
        values = (g1, g2, stable.astype(float), reach.d_max, reach.contiguous.astype(float))
        return _masked(valid, values), np.where(
            valid, _REACH_FLAGS[reach.status], "invalid-r1").tolist()

    return rule


# variable -> (x column, value columns, column rule for the fixed parameters)
_SWEEPS = {
    "d": ("d_m", ("f_d", "P_beam_W", "eta_trans", "P_out_W", "eta_all"), _d_rule),
    "P_in": ("P_in_W", ("P_stored_W", "P_beam_W", "P_out_W", "eta_all"), _p_in_rule),
    "P_stored": ("P_stored_W", ("f_d", "P_beam_W", "eta_trans"), _p_stored_rule),
    "P_beam": ("P_beam_W", ("P_pv_W", "eta_pv"),
               lambda p: lambda pb: _per_drive(pv_column(pb, p.pv), pb, below=True)),
    "R1": ("R1_m", ("g1", "g2", "stable", "d_max_m", "contiguous"), _r1_rule),
}


def sweep(spec: SweepSpec) -> Dataset:
    """Evaluate the relevant model quantities at every grid point.

    Per-point domain errors become row flags; the sweep itself never aborts.
    Output row order matches the grid, independent of evaluation order.
    """
    x_col, value_cols, rule_for = _SWEEPS[spec.variable]
    prov = provenance_for(spec.fixed, variable=spec.variable, points=len(spec.grid))
    xs = np.array(spec.grid, dtype=float)
    return _tabulate(xs, x_col, value_cols, {"": rule_for(spec.fixed)}, prov)


def max_distance_vs_r1(
    l: float, f: float, r1_grid, branch: str, *, params: SystemParams | None = None
) -> Dataset:
    """Solve connecting_r2 then max_transmission_distance along an R1 grid.

    Rows where no branch solution or no stable region exists carry zeros and
    a flag instead of aborting the sweep; an invalid l, f or branch, or a
    non-finite R1, raises.
    """
    base = params if params is not None else reference_defaults()
    grid = _checked_grid("R1", np.fromiter(r1_grid, dtype=float))
    prov = provenance_for(base, variable="R1", branch=branch, points=len(grid))
    prov |= {"l": repr(l), "f": repr(f)}
    return _tabulate(grid, "R1_m", ("R2_m", "d_max_m", "contiguous"),
                     {"": _design_columns(l, f, branch)}, prov)


# ---------------------------------------------------------------------------
# Figure reproduction


def _fig8(p: SystemParams, prov: dict) -> dict[str, Rule]:
    geo, rules = p.geometry, {}
    for branch in BRANCHES:
        r2 = connecting_r2(geo.l, geo.f, geo.r1, branch)
        prov[f"r2_{branch}"] = repr(r2)
        rules[branch] = partial(_radii_rule, replace(geo, r2=r2), p.wavelength)
    return rules


def _radii_rule(geom, wavelength: float, d: np.ndarray) -> tuple[tuple, list[str]]:
    stable, radii = beam_radii_columns(geom, d, wavelength)
    return radii, _flags(len(d), (~stable, "unstable"))


def _beam_pair(ps, fd, gain) -> tuple[np.ndarray, np.ndarray]:
    """(P_beam, eta_trans) at held stored power ps along an f(d) column."""
    pb = beam_column(ps, fd, gain)
    return pb, ratio_column(pb, ps)


def _output_pair(p_in, fd, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """(P_out, eta_all) of the ladder; p_in and fd are columns or floats."""
    lad = ladder_columns(p_in, fd, p)
    return lad.p_out, lad.eta_all


def _clean(xs: np.ndarray) -> list[str]:
    return [""] * len(xs)


# id -> (grid ends, x column, value columns per series, join flags,
#        series(params, provenance) -> {tag: rule}; the tag "" is one untagged series)
_FIGURES = {
    6: ((0.0, 100.0), "P_in_W", ("P_stored_W",), False,
        lambda p, prov: {"": lambda p_in: ((stored_column(p_in, p.gain),), _clean(p_in))}),
    7: ((-1.5, -0.5), "R1_m", ("d_max_m",), True,  # d_max only, of (R2, d_max, contiguous)
        lambda p, prov: {f"l{mm}_{b}": _design_columns(mm / 1000.0, p.geometry.f, b, slice(1, 2))
                         for mm in (60, 80, 100) for b in BRANCHES}),
    8: ((0.1, 10.4), "d_m", ("w_gain_m", "w_m1_m", "w_m2_m"), True, _fig8),
    9: ((0.0, 50.0), "P_stored_W", ("P_beam_W", "eta_trans"), False,
        lambda p, prov: {f"d{d:g}": _held(p, d, lambda ps, fd:
                                          _per_drive(beam_column(ps, fd, p.gain), ps))
                         for d in (1.0, 5.0)}),
    10: ((1.0, 10.0), "d_m", ("P_beam_W", "eta_trans"), False,
         lambda p, prov: {f"ps{ps:g}": _distance_rule(p, partial(_beam_pair, ps, gain=p.gain))
                          for ps in (10.0, 20.0, 30.0)}),
    11: ((0.0, 30.0), "P_beam_W", ("P_pv_W", "eta_pv"), False,
         lambda p, prov: {"": lambda pb: _per_drive(pv_column(pb, p.pv), pb)}),
    12: ((0.0, 100.0), "P_in_W", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"d{d:g}": _held(p, d, lambda p_in, fd:
                                           (_output_pair(p_in, fd, p), _clean(p_in)))
                          for d in (1.0, 5.0)}),
    13: ((1.0, 10.0), "d_m", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"pin{pin:g}": _distance_rule(p, partial(_output_pair, pin, p=p))
                          for pin in (50.0, 80.0, 100.0)}),
}


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
    return _tabulate(np.linspace(lo, hi, 200), x_col, value_cols, series(p, prov), prov, join)
