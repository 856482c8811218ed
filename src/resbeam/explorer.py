"""Design-space exploration: sweeps, figures and the R1 design grid.

The point solvers ``required_input_power`` and ``calibrate_aperture`` live in
:mod:`resbeam.powerchain`, and the R1 design search ``r1_range_for_distance``
in :mod:`resbeam.cavity`; all three are re-exported here under the same names.

Each dataset rule is written once, on the primitives of a kit (see Kit): it
calls the unchecked bodies of the power stages, the connected-branch design
and the reach itself, with the kit's pick and sqrt, and flags a row rather
than raise.  f(d) has one route, _at_distance; a series held at one d takes
its row at d, so no rule calls a checked kernel (figure 8 checks its fixed
design).  Where numpy is not loaded a grid runs its rules row by row on the
row kit, so no CLI command imports numpy, at any --points.  Where numpy is
already loaded it runs them on the column kit, with the same bits, under
``np.errstate(all="ignore")``: like Python floats, the columns overflow to
inf and give NaN for inf*0 (a subnormal radius does both).  The two drivers
only evaluate; _tabulate joins the series' flags and flags a row that
overflowed, once for both.  Rows that cannot be evaluated (unstable cavity,
f(d) inf/inf, no branch solution, ratios at zero input) carry zeros plus a
flag token, picked like any value, rather than being dropped.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence

from .cavity import (
    BRANCHES,
    _check_l_f,
    _design,
    _g_terms,
    _pick,
    _radii,
    _stable,
    _supremum,
    connecting_r2,
    r1_range_for_distance,
)
from .config import SWEEP_VARIABLES, provenance_for, reference_defaults
from .dataset import Dataset, _floats
from .diffraction import _tem00_exponent
from .errors import Record, UnknownFigureError, require
from .powerchain import (
    SystemParams,
    _beam,
    _ladder,
    _pv,
    _ratio,
    _stored,
    calibrate_aperture,
    coefficient_at_loss,
    required_input_power,
)

FIGURE_IDS = tuple(range(6, 14))

class SweepSpec(Record):
    """One swept variable over a strictly increasing finite grid (>= 0 but for R1), rest fixed."""

    variable: str
    grid: tuple[float, ...]
    fixed: SystemParams

    def __post_init__(self):
        v = self.variable
        require("variable", v, v in SWEEP_VARIABLES, f"one of {SWEEP_VARIABLES}")
        grid = tuple(_checked_grid(v, self.grid))
        if not all(map(operator.lt, grid, grid[1:])):  # name the first pair out of order
            pair = next(q for q in zip(grid, grid[1:]) if q[0] >= q[1])
            require("grid", pair, False, "strictly increasing")
        object.__setattr__(self, "grid", grid)  # the tuple checked, not the caller's sequence


def _checked_grid(variable: str, points) -> list[float]:
    """The points as a nonempty list of floats, each finite, and >= 0 but for R1."""
    try:  # a string is a sequence, but of characters: "123" is no grid of three points
        grid = [] if isinstance(points, (str, bytes)) else _floats(points)
    except (TypeError, ValueError):  # not a sequence, a nested one, or one with a non-number
        grid = []
    require("grid", points, len(grid) > 0, "a nonempty sequence of numbers")
    signed = variable == "R1"
    # a finite sum passes every point; inf, NaN or an overflowed sum sends it point by point
    finite = math.isfinite(sum(grid)) or all(map(math.isfinite, grid))
    if not (finite and (signed or min(grid) >= 0)):
        bad = next(x for x in grid if not (math.isfinite(x) and (signed or x >= 0)))
        require("grid", bad, False, "finite" if signed else "finite and >= 0")
    return grid


# The primitives the dataset rules and the bodies they call run on, one float
# at a time in the row kit ROWS (no numpy) or a numpy column at a time in the
# column kit _column_kit(), with the same bits.  A rule ``rule(k, x) -> (values,
# flag)`` is written once on them; ``flag`` is a row's token, or "" for a clean
# row, picked like any value, so precedence is the nesting of picks.
# pick(mask, a, b) is a where the mask holds, else b; the min and max of two
# roots are picks too (see cavity._pieces).  when(ok, row, token) is row() where
# the mask ok holds and zero values flagged token elsewhere: rows call row()
# only where ok holds and give no values elsewhere, which the row driver pads
# with zeros; columns call it once.  A kit holds no overflow rule: _tabulate does.
Kit = namedtuple("Kit", "pick exp sqrt when")
ROWS = Kit(pick=_pick, exp=math.exp, sqrt=math.sqrt,
           when=lambda ok, row, token: row() if ok else ((), token))


def _column_kit() -> Kit:
    """The kit on numpy columns.  Its when evaluates every row and zeroes those
    outside its mask."""
    import numpy as np

    def when(ok: np.ndarray, row: Callable, token: str) -> tuple:
        values, flag = row()
        return [np.where(ok, v, 0.0) for v in values], np.where(ok, flag, token)

    return Kit(
        pick=np.where,
        # math.exp, not np.exp: numpy's exp differs in the last bit for some arguments
        exp=lambda x: np.fromiter(map(math.exp, x.tolist()), float, x.size),
        sqrt=np.sqrt, when=when,
    )


def _tagged(name: str, tag: str) -> str:
    """Series column name: the tag goes before a unit suffix (P_beam_W -> P_beam_d1_W)."""
    if not tag:
        return name
    stem, _, unit = name.rpartition("_")
    return f"{stem}_{tag}_{unit}" if unit in ("W", "m") else f"{name}_{tag}"


def _by_rows(xs: Sequence[float], rules: Iterable[Callable], width: int) -> list:
    """[(columns, flags, finite)] of each rule on ROWS, a float at a time; inf/NaN poison sums."""
    pad, out = (0.0,) * width, []
    for rule in rules:
        values, flags = zip(*[rule(ROWS, x) for x in xs])
        columns = list(zip(*[(*v, *pad[len(v):]) for v in values]))
        out.append((columns, list(flags), all(math.isfinite(sum(c)) for c in columns)))
    return out


def _by_columns(xs: Sequence[float], rules: Iterable[Callable], width: int) -> list:
    """[(columns, flags, finite)] of each rule run once on one column kit and grid."""
    import numpy as np

    n, kit, grid, out = len(xs), _column_kit(), np.fromiter(xs, float, len(xs)), []
    for rule in rules:
        with np.errstate(all="ignore"):
            values, flag = rule(kit, grid)
        columns = [np.full(n, v) if np.ndim(v) == 0 else v for v in values]
        columns += [np.zeros(n)] * (width - len(values))
        flags = flag.tolist() if np.ndim(flag) else [str(flag)] * n  # one token may flag every row
        out.append((columns, flags, bool(np.isfinite(columns).all())))
    return out


def _tabulate(xs: Sequence[float], x_col, value_cols, rules: dict, provenance,
              join=False) -> Dataset:
    """Evaluate each series' rule on the grid xs into one Dataset.

    ``rules`` maps a series tag to its rule; each series fills its own tagged
    copy of ``value_cols``, and values missing at the end read zero.  When
    several series flag a row, ``join`` joins ``tag:flag`` tokens with ';';
    otherwise the first nonempty flag wins.  A row with a value that
    overflowed to +-inf reads zero, flagged ``overflow``.  A driver only
    evaluates the rules, all at once on a grid it keeps to itself: as columns
    where numpy is already loaded and as rows elsewhere, never importing numpy;
    the flags and overflow are settled here.
    """
    evaluate = _by_columns if "numpy" in sys.modules else _by_rows
    table, flags, finite = [xs], None, True
    for tag, (columns, marks, ok) in zip(rules, evaluate(xs, rules.values(), len(value_cols))):
        table, finite = table + columns, finite and ok
        marks = [m and f"{tag}:{m}" for m in marks] if join else marks
        flags = marks if flags is None else [
            f"{a};{m}" if join and a and m else a or m for a, m in zip(flags, marks)]
    if not finite:  # a driver's sums may overflow on finite values, so test each row
        ok = [all(map(math.isfinite, row)) for row in zip(*table)]
        table = [xs] + [[v if k else 0.0 for v, k in zip(c, ok)] for c in table[1:]]
        flags = [m if k else "overflow" for m, k in zip(flags, ok)]
    names = [x_col] + [_tagged(c, tag) for tag in rules for c in value_cols]
    return Dataset(dict(zip(names, table)), flags, provenance)


def _per_drive(k, out, drive, below=False) -> tuple:
    """((out, out/drive), flag) of a stage: at zero drive the ratio reads 0, flagged
    undefined-at-zero; with `below`, a driven row with no output is below-threshold."""
    below = (out == 0.0) & (drive > 0) & below
    flag = k.pick(drive == 0.0, "undefined-at-zero", k.pick(below, "below-threshold", ""))
    return (out, _ratio(out, drive, k.pick)), flag


def _held(p: SystemParams, d: float, rule: Callable) -> Callable:
    """rule(k, x, fd) at f(d) of a held d, _at_distance's row at d: its flag flags every row."""
    values, flag = _at_distance(p, lambda k, fd: ((fd,), ""))(ROWS, d)
    return (lambda k, x: ((), flag)) if flag else (lambda k, x, fd=values[0]: rule(k, x, fd))


def _at_distance(p: SystemParams, at: Callable) -> Callable:
    """Rule d -> at(k, f(d)) at a stable d with a number f(d); other rows read zero, flagged."""
    g, a, wavelength, gain = p.geometry, p.aperture_radius, p.wavelength, p.gain
    l, f, r1, r2 = g.l, g.f, g.r1, g.r2

    def rule(k, d):
        fd = coefficient_at_loss(k.exp(_tem00_exponent(a, wavelength, l, d)), gain)
        stable = _stable(_g_terms(l, f, r1, r2, d))
        return k.when(stable & (fd == fd), lambda: at(k, fd), k.pick(stable, "overflow", "unstable"))

    return rule


def _design_rule(l: float, f: float, branch: str, keep=slice(None)) -> Callable:
    """R1 -> (R2, d_max, contiguous)[keep] of the connected-branch designs."""
    require("branch", branch, branch in BRANCHES, f"one of {BRANCHES}")
    _check_l_f(l, f)

    def rule(k, r1):
        r2, d_max, ok, found = _design(l, f, r1, branch, k.pick)
        values = k.pick(ok, r2, 0.0), k.pick(found, d_max, 0.0), found * 1.0
        return values[keep], k.pick(found, "", k.pick(ok, "no-stable-region", "no-solution"))

    return rule


def _d_rule(p: SystemParams) -> Callable:
    def at(k, fd):
        (_, _, pb, po), (_, eta_trans, _, eta_all) = _ladder(p.p_in, fd, p, k.pick)
        below = (po == 0.0) & (p.p_in > 0)
        return (fd, pb, eta_trans, po, eta_all), k.pick(below, "below-threshold", "")

    return _at_distance(p, at)


def _p_in_rule(p: SystemParams) -> Callable:
    def rule(k, p_in, fd):
        (_, ps, pb, po), (_, _, _, eta_all) = _ladder(p_in, fd, p, k.pick)
        return (ps, pb, po, eta_all), k.pick((po == 0.0) & (p_in > 0), "below-threshold", "")

    return _held(p, p.d, rule)


def _p_stored_rule(p: SystemParams) -> Callable:
    def rule(k, ps, fd):
        values, flag = _per_drive(k, _beam(ps, fd, p.gain, k.pick), ps, below=True)
        return (fd, *values), flag

    return _held(p, p.d, rule)


def _p_beam_rule(p: SystemParams) -> Callable:
    return lambda k, pb: _per_drive(k, _pv(pb, p.pv, k.pick), pb, below=True)


def _r1_rule(p: SystemParams) -> Callable:
    l, f, r2, d = p.geometry.l, p.geometry.f, p.geometry.r2, p.d

    def rule(k, r1):
        def row():
            g = _g_terms(l, f, r1, r2, d)
            d_max, contiguous, found = _supremum(l, f, r1, r2, k.pick, k.sqrt)
            return ((g[1], g[2], _stable(g) * 1.0, d_max, contiguous * 1.0),
                    k.pick(found, "", "no-stable-region"))

        # the grid is finite, so 0.0 is the one R1 CavityGeometry rejects
        return k.when(r1 != 0.0, row, "invalid-r1")

    return rule


# variable -> (x column, value columns, rule for the fixed parameters)
_SWEEPS = {
    "d": ("d_m", ("f_d", "P_beam_W", "eta_trans", "P_out_W", "eta_all"), _d_rule),
    "P_in": ("P_in_W", ("P_stored_W", "P_beam_W", "P_out_W", "eta_all"), _p_in_rule),
    "P_stored": ("P_stored_W", ("f_d", "P_beam_W", "eta_trans"), _p_stored_rule),
    "P_beam": ("P_beam_W", ("P_pv_W", "eta_pv"), _p_beam_rule),
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


def max_distance_vs_r1(
    l: float, f: float, r1_grid, branch: str, *, params: SystemParams | None = None
) -> Dataset:
    """The connecting r2 and the reach of the connected-branch design along an R1 grid.

    A row's d_max is the closed-form reach of the exact branch design at its
    R1 (cavity._design), and a design's stable set is always contiguous.
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


def _radii_rule(l: float, f: float, r1: float, r2: float, wavelength: float) -> Callable:
    """d -> the three mode radii of beam_radii; unstable rows read zero, flagged."""
    lam_pi = wavelength / math.pi

    def rule(k, d):
        g = _g_terms(l, f, r1, r2, d)
        return k.when(_stable(g), lambda: (_radii(l, f, r1, r2, d, g, lam_pi, k.sqrt), ""),
                      "unstable")

    return rule


def _fig8(p: SystemParams, prov: dict) -> dict[str, Callable]:
    rules = {}
    l, f, r1 = p.geometry.l, p.geometry.f, p.geometry.r1
    for branch in BRANCHES:
        r2 = connecting_r2(l, f, r1, branch)  # a valid element, or it raises
        prov[f"r2_{branch}"] = repr(r2)
        rules[branch] = _radii_rule(l, f, r1, r2, p.wavelength)
    return rules


def _beams(k, ps, fd, p: SystemParams) -> tuple:
    """((P_beam, eta_trans), flag) at stored power ps and slope fd."""
    return _per_drive(k, _beam(ps, fd, p.gain, k.pick), ps)


def _outputs(k, p_in, fd, p: SystemParams) -> tuple:
    """((P_out, eta_all), no flag) of the ladder at input power p_in and slope fd."""
    (_, _, _, p_out), (_, _, _, eta_all) = _ladder(p_in, fd, p, k.pick)
    return (p_out, eta_all), ""


# id -> (grid ends, x column, value columns per series, join flags,
#        series(params, provenance) -> {tag: rule}; the tag "" is one untagged series)
_FIGURES = {
    6: ((0.0, 100.0), "P_in_W", ("P_stored_W",), False,
        lambda p, prov: {"": lambda k, p_in: ((_stored(p_in, p.gain),), "")}),
    7: ((-1.5, -0.5), "R1_m", ("d_max_m",), True,  # d_max only, of (R2, d_max, contiguous)
        lambda p, prov: {f"l{mm}_{b}": _design_rule(mm / 1000.0, p.geometry.f, b, slice(1, 2))
                         for mm in (60, 80, 100) for b in BRANCHES}),
    8: ((0.1, 10.4), "d_m", ("w_gain_m", "w_m1_m", "w_m2_m"), True, _fig8),
    9: ((0.0, 50.0), "P_stored_W", ("P_beam_W", "eta_trans"), False,
        lambda p, prov: {f"d{d:g}": _held(p, d, lambda k, ps, fd: _beams(k, ps, fd, p))
                         for d in (1.0, 5.0)}),
    10: ((1.0, 10.0), "d_m", ("P_beam_W", "eta_trans"), False,
         lambda p, prov: {f"ps{ps:g}": _at_distance(p, lambda k, fd, ps=ps: _beams(k, ps, fd, p))
                          for ps in (10.0, 20.0, 30.0)}),
    11: ((0.0, 30.0), "P_beam_W", ("P_pv_W", "eta_pv"), False,
         lambda p, prov: {"": lambda k, pb: _per_drive(k, _pv(pb, p.pv, k.pick), pb)}),
    12: ((0.0, 100.0), "P_in_W", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"d{d:g}": _held(p, d, lambda k, p_in, fd: _outputs(k, p_in, fd, p))
                          for d in (1.0, 5.0)}),
    13: ((1.0, 10.0), "d_m", ("P_out_W", "eta_all"), False,
         lambda p, prov: {f"pin{pin:g}": _at_distance(
             p, lambda k, fd, pin=pin: _outputs(k, pin, fd, p)) for pin in (50.0, 80.0, 100.0)}),
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
    fid = operator.index(figure_id) if hasattr(figure_id, "__index__") else None  # not 6.0 or "6"
    if fid not in _FIGURES:
        raise UnknownFigureError(f"figure id must be in 6..13, got {figure_id!r}")
    (lo, hi), x_col, value_cols, join, series = _FIGURES[fid]
    prov = provenance_for(p, figure=fid)
    return _tabulate(linspace(lo, hi, 200), x_col, value_cols, series(p, prov), prov, join)
