"""Column kernels: the cavity closed forms and power-chain stages over numpy arrays.

For drivers that evaluate whole grids.  Arguments broadcast against each other
and describe geometries that CavityGeometry accepts; rows a driver masks out
may hold anything.  Every kernel runs its scalar kernel's body from
:mod:`resbeam.cavity` or :mod:`resbeam.powerchain`, or the same operations in
the same order, so each element equals the scalar result bit for bit
(tests/test_cavity.py and tests/test_powerchain.py check this by property).
A column call has a fixed cost of some hundreds of microseconds, so single
evaluations go through the scalar kernels.  Like Python floats, the kernels
overflow to inf and give NaN for inf*0 without a warning (a subnormal radius
does both).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cavity import (
    _MERGE_TOL,
    BRANCHES,
    CavityGeometry,
    _affine,
    _check_l_f,
    _connecting,
    _g_terms,
    _radii,
)
from .diffraction import _tem00_exponent
from .errors import require
from .powerchain import GainParams, PvParams, SystemParams, coefficient_at_loss

REACH_OK, REACH_NO_STABLE_REGION, REACH_UNBOUNDED = 0, 1, 2


class ReachColumns(NamedTuple):
    """Per-row outcome of :func:`resbeam.cavity.max_transmission_distance`.

    ``status`` holds REACH_OK, or the error the scalar kernel raises as
    REACH_NO_STABLE_REGION or REACH_UNBOUNDED; ``d_max`` reads 0.0 and
    ``contiguous`` False where the status is not REACH_OK.
    """

    d_max: np.ndarray
    status: np.ndarray
    contiguous: np.ndarray


def valid_elements(x) -> np.ndarray:
    """Mask of the element values CavityGeometry accepts: finite nonzero or FLAT."""
    x = np.asarray(x, dtype=float)
    return (x != 0.0) & (x != -math.inf) & ~np.isnan(x)


def g_columns(l, f, r1, r2, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, g1, g2) of :func:`resbeam.cavity.g_parameters` for every element; d >= 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _g_terms(l, f, r1, r2, np.asarray(d, dtype=float))


def stable_columns(l, f, r1, r2, d) -> np.ndarray:
    """Mask of :func:`resbeam.cavity.is_stable`: 0 < g1*g2 < 1, strict; d >= 0."""
    _, g1, g2 = g_columns(l, f, r1, r2, d)
    with np.errstate(over="ignore", invalid="ignore"):
        gg = g1 * g2
    return (0.0 < gg) & (gg < 1.0)


def beam_radii_columns(
    geom: CavityGeometry, d, wavelength: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(stable, (w_gain, w_m1, w_m2)) of :func:`resbeam.cavity.beam_radii` along a d column.

    The radii read 0.0 where the cavity is unstable, which is where
    beam_radii raises UnstableConfigurationError.
    """
    require("wavelength", wavelength, 0.0 < wavelength < math.inf, "finite and > 0")
    d = _drive_column("d", d)
    args = geom.l, geom.f, geom.r1, geom.r2, d
    # unstable rows take square roots of negatives, and are masked below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = _g_terms(*args)
        gg = g[1] * g[2]
        stable = (0.0 < gg) & (gg < 1.0)
        radii = _radii(*args, g, wavelength / math.pi, np.sqrt)
    return stable, tuple(np.where(stable, w, 0.0) for w in radii)


def connecting_r2_columns(l: float, f: float, r1, branch: str) -> tuple[np.ndarray, np.ndarray]:
    """(r2, solvable) of :func:`resbeam.cavity.connecting_r2` along an R1 column at fixed l, f.

    An invalid l or f raises UnitError, as in connecting_r2.  ``solvable`` is
    False, and r2 reads 0.0, on the rows where connecting_r2 raises a design
    error or returns an r2 that CavityGeometry rejects.
    """
    require("branch", branch, branch in BRANCHES, f"one of {BRANCHES}")
    _check_l_f(l, f)
    r1 = np.asarray(r1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c0, den, rho2 = _connecting(l, f, r1, branch)
        # the first two tests of _g1_independent_of_d; the third is den == 0
        degenerate = np.isinf(r1) if math.isinf(f) else np.isfinite(r1) & (l - r1 - f == 0.0)
        r2 = 1.0 / rho2
    solvable = (c0 != 0.0) & valid_elements(r1) & ~degenerate & (den != 0.0) & valid_elements(r2)
    return np.where(solvable, r2, 0.0), solvable


def _reach_candidates(l, f, r1, r2) -> np.ndarray:
    """Rows of cavity._boundary_candidates: ascending, merged, NaN-padded to width 4."""
    a1, b1, a2, b2 = _affine(l, f, r1, r2)
    qa, qb, qc = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0
    disc = qb * qb - 4.0 * qa * qc
    s = np.sqrt(disc)  # NaN where disc < 0: no real roots, dropped below
    centred = (disc == 0.0) | (qb == 0.0)
    q = -0.5 * (qb + np.copysign(s, qb))
    linear = qa == 0.0
    cands = np.stack([
        -a1 / b1,
        -a2 / b2,
        np.where(linear, -qc / qb, np.where(centred, (-qb - s) / (2.0 * qa), q / qa)),
        np.where(linear, math.nan, np.where(centred, (-qb + s) / (2.0 * qa), qc / q)),
    ], axis=-1)
    cands = np.sort(np.where((cands > 0.0) & np.isfinite(cands), cands, math.nan), axis=-1)
    last = np.full(cands.shape[:-1], math.nan)
    for k in range(cands.shape[-1]):
        c = cands[..., k]
        dup = c - last <= _MERGE_TOL * np.maximum(1.0, c)  # False against NaN
        cands[..., k] = np.where(dup, math.nan, c)
        last = np.where(dup | np.isnan(c), last, c)
    return np.sort(cands, axis=-1)


def max_distance_columns(l, f, r1, r2) -> ReachColumns:
    """:func:`resbeam.cavity.max_transmission_distance` of every row of (l, f, r1, r2) columns.

    The same boundary candidates, merge, midpoint stability tests, probe
    one meter beyond the last boundary and contiguity rule as the scalar
    kernel, with its two errors returned as a status per row.
    """
    geom = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (l, f, r1, r2)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cands = _reach_candidates(*geom)
        points = np.concatenate([np.zeros_like(cands[:, :1]), cands], axis=1)
        lo, hi = points[:, :-1], points[:, 1:]
        mid = 0.5 * (lo + hi)
        segment = (hi - lo > _MERGE_TOL) & stable_columns(*(c[:, None] for c in geom), mid)
        beyond = np.fmax.reduce(points, axis=1) + 1.0
        unbounded = stable_columns(*geom, beyond)
    n = len(points)
    d_max, prev_hi = np.zeros(n), np.full(n, math.nan)
    contiguous = np.ones(n, dtype=bool)
    for j in range(segment.shape[1]):
        seg = segment[:, j]
        contiguous &= ~(seg & (lo[:, j] - prev_hi > _MERGE_TOL))  # no gap to the previous one
        prev_hi = np.where(seg, hi[:, j], prev_hi)
        d_max = np.where(seg, hi[:, j], d_max)
    ok = segment.any(axis=1) & ~unbounded
    status = np.where(unbounded, REACH_UNBOUNDED, np.where(ok, REACH_OK, REACH_NO_STABLE_REGION))
    return ReachColumns(d_max=np.where(ok, d_max, 0.0), status=status, contiguous=contiguous & ok)


class LadderColumns(NamedTuple):
    """Columns of :func:`resbeam.powerchain.ladder_at`: the powers and the ratios it reports."""

    p_stored: np.ndarray
    p_beam: np.ndarray
    p_out: np.ndarray
    eta_trans: np.ndarray
    eta_all: np.ndarray


def _drive_column(name: str, x) -> np.ndarray:
    """x as a float array, checked finite and >= 0 as the scalar stages check it."""
    x = np.asarray(x, dtype=float)
    bad = ~((x >= 0) & np.isfinite(x))
    if bad.any():
        require(name, float(x[bad].flat[0]), False, "finite and >= 0")
    return x


def _clamp(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise; np.maximum(0.0, -0.0) would keep the -0.0."""
    return np.where(x > 0.0, x, 0.0)


def ratio_column(num, den) -> np.ndarray:
    """num/den where den > 0, else 0.0: the below-threshold efficiency rule."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    with np.errstate(over="ignore"):  # a subnormal den gives inf, as Python's division does
        return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


def gain_to_beam_column(d, p: SystemParams) -> np.ndarray:
    """f(d) of :func:`resbeam.powerchain.gain_to_beam_coefficient` along a d column."""
    d = _drive_column("d", d)
    exponent = _tem00_exponent(p.aperture_radius, p.wavelength, p.l, d)
    # math.exp, not np.exp: numpy's exp differs in the last bit for some arguments
    delta00 = np.array([math.exp(x) for x in exponent.ravel().tolist()]).reshape(d.shape)
    return coefficient_at_loss(delta00, p.gain)


def stored_column(p_in, gain: GainParams) -> np.ndarray:
    """:func:`resbeam.powerchain.stored_power` along a p_in column."""
    return gain.eta_stored * _drive_column("p_in", p_in)


def beam_column(p_stored, fd, gain: GainParams) -> np.ndarray:
    """:func:`~resbeam.powerchain.beam_at` along columns (or floats) of stored power and slope."""
    return _clamp(fd * _drive_column("p_stored", p_stored) + gain.c)


def pv_column(p_beam, pv: PvParams) -> np.ndarray:
    """:func:`resbeam.powerchain.pv_output` along a beam-power column."""
    return _clamp(pv.a1 * _drive_column("p_beam", p_beam) + pv.b1)


def ladder_columns(p_in, fd, p: SystemParams) -> LadderColumns:
    """:func:`~resbeam.powerchain.ladder_at` along columns (or floats) of input power and slope."""
    p_stored = stored_column(p_in, p.gain)
    p_beam = beam_column(p_stored, fd, p.gain)
    p_out = pv_column(p_beam, p.pv)
    return LadderColumns(
        p_stored=p_stored, p_beam=p_beam, p_out=p_out,
        eta_trans=ratio_column(p_beam, p_stored), eta_all=ratio_column(p_out, p_in),
    )
