"""The column kit COLUMNS: the kit operations of :mod:`resbeam.explorer` on numpy columns.

A dataset grid longer than ``explorer.ROWS_MAX`` runs its rules on COLUMNS,
under ``np.errstate(all="ignore")``, since an overflow there is flagged, not
warned of.  Most operations are the cavity and power-stage bodies themselves,
which run on floats and columns alike; the design is cavity._design and the
reach cavity._supremum, with numpy's where (and sort and sqrt).  What is
written here is columnar by nature: ``when`` evaluates every row and zeroes
those outside its mask, and the design and the reach mark rows rather than
branch on them.  Each element equals the row kit's result bit for bit
(tests/test_cavity.py and test_rows.py check this by property).  Like Python
floats, the columns overflow to inf and give NaN for inf*0 (a subnormal
radius does both).
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import _design, _supremum
from .explorer import Kit


def _design_column(l: float, f: float, r1: np.ndarray, branch: str) -> tuple:
    """((r2, d_max, contiguous), marks) of the row kit's design along an R1 column."""
    r2, d_max, ok, found = _design(l, f, r1, branch, np.where)
    values = np.where(ok, r2, 0.0), np.where(found, d_max, 0.0), found * 1.0
    return values, ((~ok, "no-solution"), (~found, "no-stable-region"))


def _reach(l, f, r1, r2) -> tuple:
    """((d_max, contiguous), marks) of cavity._reach for every row of (l, f, r1, r2) columns."""
    geom = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in (l, f, r1, r2)))
    d_max, split, found = _supremum(*geom, np.where, lambda roots: np.sort(roots, axis=0), np.sqrt)
    return (d_max, (found & ~split) * 1.0), ((~found, "no-stable-region"),)


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
    sqrt=np.sqrt, when=_when, design=_design_column, reach=_reach,
)
