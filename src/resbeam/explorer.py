"""Design-space exploration: sweeps, inverse solvers, calibration, figures.

Every sweep and figure is one walk over its grid with a per-row rule over
the cavity and power chain primitives: identical inputs produce
bit-identical Datasets.  Rows that cannot be evaluated (unstable cavity, no
branch solution, ratios at zero input) carry zeros plus a flag token rather
than being dropped.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import defaults as dflt
from .cavity import (
    BRANCHES,
    CavityGeometry,
    beam_radii,
    connecting_r2,
    g_parameters,
    is_stable,
    max_transmission_distance,
)
from .dataset import Dataset
from .errors import (
    EmptyResultError,
    InfeasibleTargetError,
    NoSolutionError,
    NoStableRegionError,
    UnboundedStableRangeError,
    UnknownFigureError,
    UnreachableTargetError,
    UnstableConfigurationError,
    WrongSignSlopeError,
)
from .powerchain import (
    GainParams,
    PvParams,
    beam_power,
    end_to_end,
    gain_to_beam_coefficient,
    pv_output,
    stored_power,
    thresholds,
    transmission_efficiency,
)

SWEEP_VARIABLES = ("d", "P_in", "P_stored", "P_beam", "R1")

FIGURE_IDS = tuple(range(6, 14))


@dataclass(frozen=True)
class SystemParams:
    """Full parameter bundle for one link configuration."""

    geometry: CavityGeometry
    gain: GainParams
    pv: PvParams
    aperture_radius: float
    wavelength: float
    d: float = 1.0
    p_in: float = 100.0

    def __post_init__(self):
        for name in ("aperture_radius", "d", "p_in"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be finite and > 0, got {self.wavelength}")

    @property
    def l(self) -> float:
        return self.geometry.l

    def f_of_d(self, d: float) -> float:
        return gain_to_beam_coefficient(
            d, self.gain, self.aperture_radius, self.wavelength, self.l
        )


def reference_defaults() -> SystemParams:
    """The reference configuration (see :mod:`resbeam.defaults`)."""
    return SystemParams(
        geometry=CavityGeometry(
            l=dflt.DEFAULT_L, f=dflt.DEFAULT_F, r1=dflt.DEFAULT_R1, r2=dflt.DEFAULT_R2
        ),
        gain=GainParams(
            eta_stored=dflt.DEFAULT_ETA_STORED,
            m_overlap=dflt.DEFAULT_M_OVERLAP,
            c=dflt.DEFAULT_C,
            r_out=dflt.DEFAULT_R_OUT,
        ),
        pv=PvParams(a1=dflt.DEFAULT_A1, b1=dflt.DEFAULT_B1),
        aperture_radius=dflt.DEFAULT_APERTURE,
        wavelength=dflt.DEFAULT_WAVELENGTH,
        d=dflt.DEFAULT_D,
    )


def provenance_for(params: SystemParams, **extra) -> dict[str, str]:
    """Full effective parameter snapshot for output embedding."""
    # getattr, not vars(): a materialised __dict__ slows every later attribute read
    parts = (params.geometry, params.gain, params.pv)
    values = {f.name: getattr(part, f.name) for part in parts for f in fields(part)}
    values |= {"a": params.aperture_radius, "wavelength": params.wavelength,
               "d": params.d, "p_in": params.p_in}
    return {k: repr(v) for k, v in values.items()} | {k: str(v) for k, v in extra.items()}


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a strictly increasing grid, rest fixed."""

    variable: str
    grid: tuple[float, ...]
    fixed: SystemParams

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")


# A row rule maps a grid value to (values, flag).  A rule that stops early
# returns a prefix of its values; the rest of the row reads zero.
Rule = Callable[[float], tuple[Sequence[float], str]]


def _tagged(name: str, tag: str) -> str:
    """Series column name: the tag goes before a unit suffix (P_beam_W -> P_beam_d1_W)."""
    if not tag:
        return name
    stem, _, unit = name.rpartition("_")
    return f"{stem}_{tag}_{unit}" if unit in ("W", "m") else f"{name}_{tag}"


def _tabulate(grid, x_col, value_cols, rules: dict[str, Rule], provenance, join=False):
    """Walk the grid once, writing each row rule's values into zero-filled columns.

    ``rules`` maps a series tag to its rule; each series fills its own tagged
    copy of ``value_cols`` with at most that many values per row.  When
    several series flag a row, ``join`` joins ``tag:flag`` tokens with ';';
    otherwise the first nonempty flag wins.
    """
    width = len(value_cols)
    series = [(tag, rule, [0.0] * (len(grid) * width)) for tag, rule in rules.items()]
    flags = [""] * len(grid)
    for i, x in enumerate(grid):
        for tag, rule, rows in series:
            values, flag = rule(x)
            rows[i * width:i * width + len(values)] = values
            if flag and join:
                flags[i] = f"{flags[i]};{tag}:{flag}" if flags[i] else f"{tag}:{flag}"
            elif flag and not flags[i]:
                flags[i] = flag
    columns = {x_col: np.array(grid, dtype=float)}
    for tag, _, rows in series:
        table = np.array(rows, dtype=float).reshape(len(grid), width).T
        columns.update((_tagged(c, tag), col) for c, col in zip(value_cols, table))
    return Dataset(columns, flags, provenance)


# Row kernels shared by sweeps, figures and the R1 design search
_UNSTABLE = ((), "unstable")


def _gated(geom: CavityGeometry, rule: Rule) -> Rule:
    """The rule at stable distances; unstable rows read zero, flagged."""
    return lambda d: rule(d) if is_stable(geom, d) else _UNSTABLE


def _below(out: float, drive: float) -> str:
    return "below-threshold" if out == 0.0 and drive > 0 else ""


def _reach(geom: CavityGeometry) -> tuple[tuple, str]:
    """(d_max, contiguous) of a geometry, or no values and the reason as a flag."""
    try:
        md = max_transmission_distance(geom)
    except NoStableRegionError:
        return (), "no-stable-region"
    except UnboundedStableRangeError:
        return (), "unbounded"
    return (md.d_max, 1.0 if md.contiguous else 0.0), ""


def _design_rule(l: float, f: float, branch: str, keep=slice(None)) -> Rule:
    """R1 -> (R2, d_max, contiguous)[keep] of the connected-branch design."""
    def rule(r1):
        try:
            geom = CavityGeometry(l=l, f=f, r1=r1, r2=connecting_r2(l, f, r1, branch))
        except (NoSolutionError, WrongSignSlopeError, ValueError):
            return (), "no-solution"
        reach, flag = _reach(geom)
        return (geom.r2, *reach)[keep], flag

    return rule


def _beam(p: SystemParams, ps: float, d: float, below=False) -> tuple[tuple, str]:
    """(P_beam, eta_trans) at stored power ps; with `below`, a zero beam is flagged."""
    pb = beam_power(ps, d, p.gain, p.aperture_radius, p.wavelength, p.l)
    if ps > 0:
        return (pb, pb / ps), _below(pb, ps) if below else ""
    return (pb,), "undefined-at-zero"


def _pv(p: SystemParams, pb: float, below=False) -> tuple[tuple, str]:
    """(P_pv, eta_pv) at beam power pb; with `below`, a zero PV output is flagged."""
    ppv = pv_output(pb, p.pv)
    if pb > 0:
        return (ppv, ppv / pb), _below(ppv, pb) if below else ""
    return (ppv,), "undefined-at-zero"


def _output(p: SystemParams, p_in: float, d: float) -> tuple[tuple, str]:
    state, eff = end_to_end(p_in, d, p.gain, p.pv, p.aperture_radius, p.wavelength, p.l)
    return (state.p_out, eff.eta_all), ""


def _radii(geom: CavityGeometry, wavelength: float, d: float) -> tuple[tuple, str]:
    try:
        r = beam_radii(geom, d, wavelength)
    except UnstableConfigurationError:
        return _UNSTABLE
    return (r.w_gain, r.w_m1, r.w_m2), ""


def _d_rule(p: SystemParams) -> Rule:
    def rule(d):
        state, eff = end_to_end(p.p_in, d, p.gain, p.pv, p.aperture_radius, p.wavelength, p.l)
        values = (p.f_of_d(d), state.p_beam, eff.eta_trans, state.p_out, eff.eta_all)
        return values, _below(state.p_out, p.p_in)

    return _gated(p.geometry, rule)


def _p_in_rule(p: SystemParams) -> Rule:
    def rule(p_in):
        state, eff = end_to_end(p_in, p.d, p.gain, p.pv, p.aperture_radius, p.wavelength, p.l)
        values = (state.p_stored, state.p_beam, state.p_out, eff.eta_all)
        return values, _below(state.p_out, p_in)

    return rule if is_stable(p.geometry, p.d) else lambda p_in: _UNSTABLE


def _p_stored_rule(p: SystemParams) -> Rule:
    def rule(ps):
        values, flag = _beam(p, ps, p.d, below=True)
        return (fd, *values), flag

    fd = p.f_of_d(p.d)
    return rule if is_stable(p.geometry, p.d) else lambda ps: _UNSTABLE


def _r1_rule(p: SystemParams) -> Rule:
    def rule(r1):
        try:
            geom = CavityGeometry(l=p.l, f=p.geometry.f, r1=r1, r2=p.geometry.r2)
        except ValueError:
            return (), "invalid-r1"
        der = g_parameters(geom, p.d)
        reach, flag = _reach(geom)
        return (der.g1, der.g2, 1.0 if is_stable(geom, p.d) else 0.0, *reach), flag

    return rule


# variable -> (x column, value columns, row rule for the fixed parameters)
_SWEEPS = {
    "d": ("d_m", ("f_d", "P_beam_W", "eta_trans", "P_out_W", "eta_all"), _d_rule),
    "P_in": ("P_in_W", ("P_stored_W", "P_beam_W", "P_out_W", "eta_all"), _p_in_rule),
    "P_stored": ("P_stored_W", ("f_d", "P_beam_W", "eta_trans"), _p_stored_rule),
    "P_beam": ("P_beam_W", ("P_pv_W", "eta_pv"), lambda p: lambda pb: _pv(p, pb, below=True)),
    "R1": ("R1_m", ("g1", "g2", "stable", "d_max_m", "contiguous"), _r1_rule),
}


def sweep(spec: SweepSpec) -> Dataset:
    """Evaluate the relevant model quantities at every grid point.

    Per-point domain errors become row flags; the sweep itself never aborts.
    Output row order matches the grid, independent of evaluation order.
    """
    x_col, value_cols, rule_for = _SWEEPS[spec.variable]
    prov = provenance_for(spec.fixed, variable=spec.variable, points=len(spec.grid))
    return _tabulate(spec.grid, x_col, value_cols, {"": rule_for(spec.fixed)}, prov)


def thresholds_record(d: float, params: SystemParams) -> dict:
    """Threshold triple at distance d as a serializable record."""
    th = thresholds(d, params.gain, params.pv, params.aperture_radius, params.wavelength, params.l)
    return {
        "command": "thresholds",
        "d": d,
        **{f"{stage}_th": value for stage, value in th._asdict().items()},
        "params": provenance_for(params),
    }


def required_input_power(target_p_out: float, d: float, params: SystemParams) -> float:
    """Input power that produces target_p_out at distance d (closed-form inverse).

    Raises UnreachableTargetError when the cavity is unstable at d, so no
    resonant beam forms regardless of drive.
    """
    if not target_p_out > 0:
        raise ValueError(f"target_p_out must be > 0, got {target_p_out}")
    if not is_stable(params.geometry, d):
        raise UnreachableTargetError(f"cavity is not stable at d = {d} m")
    fd = params.f_of_d(d)
    slope = params.pv.a1 * fd * params.gain.eta_stored
    if slope <= 0:
        raise UnreachableTargetError("nonpositive end-to-end slope")
    return (target_p_out - params.pv.a1 * params.gain.c - params.pv.b1) / slope


def _bisect(holds, a: float, b: float, width: float) -> float:
    """Midpoint of [a, b] shrunk to `width`, keeping holds(a) true and holds(b) false."""
    while b - a > width:
        m = 0.5 * (a + b)
        if holds(m):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def calibrate_aperture(
    d: float, p_stored: float, eta_trans_target: float, params: SystemParams
) -> float:
    """Aperture radius at which eta_trans(p_stored, d) hits the target.

    delta00 falls monotonically with aperture radius, so f(d) and eta_trans
    rise monotonically toward the delta00 = 0 ceiling; the target is found by
    bisection (|result error| < 1e-12 m, efficiency within 1e-6).

    Raises InfeasibleTargetError when the target is above that ceiling (or
    below the closed-down floor at a = 0).
    """
    if not p_stored > 0:
        raise ValueError(f"p_stored must be > 0, got {p_stored}")
    gain = params.gain
    f_ceiling = (
        2.0 * (1.0 - gain.r_out) * gain.m_overlap
        / ((1.0 + gain.r_out) * (-math.log(gain.r_out)))
    )
    ceiling = f_ceiling + gain.c / p_stored
    if eta_trans_target > ceiling:
        raise InfeasibleTargetError(
            f"target {eta_trans_target} exceeds the zero-loss ceiling {ceiling:.6f}"
        )

    def gap(a: float) -> float:
        return (
            transmission_efficiency(p_stored, d, gain, a, params.wavelength, params.l)
            - eta_trans_target
        )

    g0 = gap(0.0)
    if g0 == 0.0:
        return 0.0
    if g0 > 0.0:
        raise InfeasibleTargetError(
            f"target {eta_trans_target} is below the closed-aperture floor"
        )
    hi = math.sqrt(60.0 * params.wavelength * (params.l + d) / (2.0 * math.pi))
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1.0:  # 1 m aperture: numerically identical to the ceiling
            raise InfeasibleTargetError(
                f"target {eta_trans_target} is not reachable by any aperture"
            )
    return _bisect(lambda a: gap(a) < 0.0, 0.0, hi, 1e-12)


def max_distance_vs_r1(
    l: float, f: float, r1_grid, branch: str, *, params: SystemParams | None = None
) -> Dataset:
    """Solve connecting_r2 then max_transmission_distance along an R1 grid.

    Rows where no branch solution or no stable region exists carry zeros and
    a flag instead of aborting the sweep.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    base = params if params is not None else reference_defaults()
    grid = [float(r) for r in r1_grid]
    if not grid:
        raise ValueError("r1_grid must be nonempty")
    prov = provenance_for(base, variable="R1", branch=branch, points=len(grid))
    prov |= {"l": repr(l), "f": repr(f)}
    return _tabulate(grid, "R1_m", ("R2_m", "d_max_m", "contiguous"),
                     {"": _design_rule(l, f, branch)}, prov)


def r1_range_for_distance(
    target_d: float,
    l: float,
    f: float,
    branch: str,
    search_interval: tuple[float, float],
    grid_points: int = 200,
    resolution: float = 1e-3,
) -> list[tuple[float, float]]:
    """Maximal R1 subintervals whose connected-branch design reaches target_d.

    Grid scan over the search interval, then bisection refinement of every
    edge down to the given resolution (meters of R1).

    Raises EmptyResultError when no R1 in the interval qualifies.
    """
    lo, hi = search_interval
    if not lo < hi:
        raise ValueError(f"invalid search interval {search_interval}")
    design = _design_rule(l, f, branch)

    def reaches(r1: float) -> bool:
        values, flag = design(r1)
        return flag == "unbounded" or (not flag and values[1] >= target_d)

    grid = np.linspace(lo, hi, grid_points).tolist()
    hits = [reaches(r) for r in grid]
    # every flip of the predicate between grid neighbours is an interval edge
    edges = [_bisect(lambda r, hit=hit: reaches(r) == hit, a, b, resolution)
             for a, b, hit, next_hit in zip(grid, grid[1:], hits, hits[1:]) if hit != next_hit]
    bounds = ([grid[0]] if hits[0] else []) + edges + ([grid[-1]] if hits[-1] else [])
    if not bounds:
        raise EmptyResultError(
            f"no R1 in [{lo}, {hi}] reaches {target_d} m on the {branch} branch"
        )
    return list(zip(bounds[::2], bounds[1::2]))


# ---------------------------------------------------------------------------
# Figure reproduction


def _fig8(p: SystemParams, prov: dict) -> dict[str, Rule]:
    geo, rules = p.geometry, {}
    for branch in BRANCHES:
        r2 = connecting_r2(geo.l, geo.f, geo.r1, branch)
        prov[f"r2_{branch}"] = repr(r2)
        rules[branch] = partial(_radii, replace(geo, r2=r2), p.wavelength)
    return rules


# id -> (grid ends, x column, value columns per series, join flags,
#        series(params, provenance) -> {tag: rule}; the tag "" is one untagged series)
_FIGURES = {
    6: ((0.0, 100.0), "P_in_W", ("P_stored_W",), False,
        lambda p, prov: {"": lambda p_in: ((stored_power(p_in, p.gain),), "")}),
    7: ((-1.5, -0.5), "R1_m", ("d_max_m",), True,  # d_max only, of (R2, d_max, contiguous)
        lambda p, prov: {f"l{mm}_{b}": _design_rule(mm / 1000.0, p.geometry.f, b, slice(1, 2))
                         for mm in (60, 80, 100) for b in BRANCHES}),
    8: ((0.1, 10.4), "d_m", ("w_gain_m", "w_m1_m", "w_m2_m"), True, _fig8),
    9: ((0.0, 50.0), "P_stored_W", ("P_beam_W", "eta_trans"), False,
        lambda p, prov: {f"d{d:g}": (lambda ps, d=d: _beam(p, ps, d)) for d in (1.0, 5.0)}),
    10: ((1.0, 10.0), "d_m", ("P_beam_W", "eta_trans"), False,
         lambda p, prov: {f"ps{ps:g}": _gated(p.geometry, lambda d, ps=ps: _beam(p, ps, d))
                          for ps in (10.0, 20.0, 30.0)}),
    11: ((0.0, 30.0), "P_beam_W", ("P_pv_W", "eta_pv"), False,
         lambda p, prov: {"": lambda pb: _pv(p, pb)}),
    12: ((0.0, 100.0), "P_in_W", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"d{d:g}": (lambda p_in, d=d: _output(p, p_in, d)) for d in (1.0, 5.0)}),
    13: ((1.0, 10.0), "d_m", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"pin{pin:g}": _gated(p.geometry, lambda d, pin=pin: _output(p, pin, d))
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
    grid = np.linspace(lo, hi, 200).tolist()
    return _tabulate(grid, x_col, value_cols, series(p, prov), prov, join)
