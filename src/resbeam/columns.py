"""The column kit COLUMNS: the kit operations of :mod:`resbeam.explorer` on numpy columns.

A dataset grid longer than ``explorer.ROWS_MAX`` runs its rules on COLUMNS,
under ``np.errstate(all="ignore")``, since an overflow there is flagged, not
warned of.  Most operations are the cavity and power-stage bodies themselves,
which run on floats and columns alike.  What is written here is columnar by
nature: ``when`` evaluates every row and zeroes those outside its mask, the
connected r2 tests each row's design as a mask, and the reach merges and
classifies the boundary candidates of every row at once.  Each element equals
the row kit's result bit for bit (tests/test_cavity.py and test_rows.py check
this by property).  Like Python floats, the columns overflow to inf and give
NaN for inf*0 (a subnormal radius does both).
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import _MERGE_TOL, _affine, _connecting, _stable_at
from .explorer import Kit


def _element(x: np.ndarray) -> np.ndarray:
    """Mask of the values CavityGeometry accepts: finite nonzero or FLAT."""
    return (x != 0.0) & (x != -math.inf) & (x == x)


def _connected(l: float, f: float, r1: np.ndarray, branch: str) -> tuple:
    """(r2, ok) of cavity._connected_r2 along an R1 column, on a checked l, f and branch.

    ok is False, and r2 reads 0.0, where _connected_r2 returns an error.
    """
    c0, den, rho2 = _connecting(l, f, r1, branch)
    r2 = 1.0 / rho2
    # den == 0 and l - r1 - f == 0 are the two tests of _g1_independent_of_d
    ok = (_element(r1) & (c0 != 0.0) & (l - r1 - f != 0.0) & (den != 0.0) & (rho2 != 0.0)
          & _element(r2))
    return np.where(ok, r2, 0.0), ok


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


def _reach(l, f, r1, r2) -> tuple:
    """((d_max, contiguous), marks) of cavity._reach for every row of (l, f, r1, r2) columns.

    The same boundary candidates, merge, midpoint stability tests and
    contiguity rule as the row body; an empty stable set reads zero, marked as
    its row is flagged.
    """
    geom = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (l, f, r1, r2)))
    cands = _reach_candidates(*geom)
    points = np.concatenate([np.zeros_like(cands[:, :1]), cands], axis=1)
    lo, hi = points[:, :-1], points[:, 1:]
    segment = (hi - lo > _MERGE_TOL) & _stable_at(*(c[:, None] for c in geom), 0.5 * (lo + hi))
    n = len(points)
    d_max, prev_hi = np.zeros(n), np.full(n, math.nan)
    contiguous = np.ones(n, dtype=bool)
    for j in range(segment.shape[1]):
        seg = segment[:, j]
        contiguous &= ~(seg & (lo[:, j] - prev_hi > _MERGE_TOL))  # no gap to the previous one
        prev_hi = np.where(seg, hi[:, j], prev_hi)
        d_max = np.where(seg, hi[:, j], d_max)
    empty = ~segment.any(axis=1)  # d_max stayed zero there
    return (d_max, (contiguous & ~empty) * 1.0), ((empty, "no-stable-region"),)


def _when(ok: np.ndarray, row, token: str) -> tuple:
    values, marks = row()
    return [np.where(ok, v, 0.0) for v in values], ((~ok, token), *marks)


def _ratio(num, den) -> np.ndarray:
    """num/den where den > 0, else 0.0: the below-threshold efficiency rule."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float), np.asarray(den, dtype=float))
    with np.errstate(over="ignore"):  # a subnormal den gives inf, as Python's division does
        return np.divide(num, den, out=np.zeros(num.shape), where=den > 0)


COLUMNS = Kit(
    clamp=lambda x: np.where(x > 0.0, x, 0.0),  # np.maximum(0.0, -0.0) would keep the -0.0
    ratio=_ratio,
    # math.exp, not np.exp: numpy's exp differs in the last bit for some arguments
    exp=lambda x: np.array([math.exp(v) for v in x.tolist()]),
    sqrt=np.sqrt, when=_when, connected=_connected, reach=_reach,
)
