"""The column kit COLUMNS: the kit primitives of :mod:`resbeam.explorer` on numpy columns.

A dataset grid longer than ``explorer.ROWS_MAX`` runs its rules on COLUMNS,
under ``np.errstate(all="ignore")``, since an overflow there is flagged, not
warned of.  The rules call the cavity and power-stage bodies themselves, which
run on floats and columns alike; this kit gives them numpy's where, sort and
sqrt.  What is written here is columnar by nature: ``when`` evaluates every
row and zeroes those outside its mask.  Each element equals the row kit's
result bit for bit (tests/test_cavity.py and test_rows.py check this by
property).  Like Python floats, the columns overflow to inf and give NaN for
inf*0 (a subnormal radius does both).
"""

from __future__ import annotations

import math

import numpy as np

from .explorer import Kit


def _when(ok: np.ndarray, row, token: str) -> tuple:
    values, marks = row()
    return [np.where(ok, v, 0.0) for v in values], ((~ok, token), *marks)


COLUMNS = Kit(
    pick=np.where,
    # _affine of a scalar l, f and r2 with an R1 column gives some roots 0-d
    ascending=lambda roots: np.sort(np.broadcast_arrays(*roots), axis=0),
    # math.exp, not np.exp: numpy's exp differs in the last bit for some arguments
    exp=lambda x: np.array([math.exp(v) for v in x.tolist()]),
    sqrt=np.sqrt, when=_when,
)
