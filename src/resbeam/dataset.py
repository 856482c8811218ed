"""Columnar sweep results and their byte-deterministic serialization, without
numpy: C formats each CSV row with one %-format, and JSON with its encoder."""

from __future__ import annotations

import json
import math
import operator
from itertools import repeat

from .errors import require

FORMATS = ("csv", "json")


class Dataset:
    """Named numeric series plus a per-row flag and a provenance snapshot.

    Flags are short tokens ("" for clean rows; none given means all clean);
    rows that could not be evaluated carry zeros in the numeric columns and a
    nonempty flag, never NaN or inf.  Provenance holds the full effective
    parameter set of the run.  The columns are stored as lists of floats.
    """

    def __init__(self, columns: dict, flags: list[str] | None = None,
                 provenance: dict[str, str] | None = None):
        self.columns: dict[str, list[float]] = {k: _floats(v) for k, v in columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {lengths}")
        n = lengths.pop() if lengths else 0
        self.flags: list[str] = [""] * n if flags is None else list(flags)
        self.provenance: dict[str, str] = {} if provenance is None else provenance
        if len(self.flags) != n:
            raise ValueError(f"{len(self.flags)} flags for {n} rows")
        try:  # a flag that is not a str fails the join, in C, with no Python code per row
            "".join(self.flags)
        except TypeError:
            require("flags", next(m for m in self.flags if not isinstance(m, str)), False, "a str")
        for name, col in self.columns.items():
            if not (math.isfinite(sum(col)) or all(map(math.isfinite, col))):  # inf/NaN poison sum
                raise ValueError(f"column {name} contains NaN or inf; flag the row instead")

    @property
    def n_rows(self) -> int:
        return len(self.flags)

    def column(self, name: str):
        import numpy as np  # here only: a Dataset holds lists

        return np.array(self.columns[name])


def _floats(values) -> list[float]:
    """The numbers as a list of floats; a 1-D numpy array converts in one call."""
    one_call = getattr(values, "ndim", 0) == 1
    return values.astype(float, copy=False).tolist() if one_call else list(map(float, values))


def emit_dataset(ds: Dataset, fmt: str = "csv") -> bytes:
    """Serialize a Dataset; identical inputs give identical bytes.

    CSV: '#'-prefixed provenance comment lines (sorted by key), a header of
    name_unit columns plus a trailing ``flag`` column, 9-significant-digit
    values (0 for -0.0 too), LF line endings.  JSON: ``{"provenance", "columns", "flag"}``.
    """
    require("format", fmt, fmt in FORMATS, f"one of {FORMATS}")
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in sorted(ds.provenance.items())]
        lines.append(",".join([*ds.columns, "flag"]))
        row, cols = "\n" + "%.9g," * len(ds.columns) + "%s", ds.columns.values()
        body = "".join(map(operator.mod, repeat(row), zip(*cols, ds.flags)))
        if "-0," in body:  # only -0.0 prints "-0,"; exponents have 2 digits; 0.0 + -0.0 is 0.0
            cols = [map(operator.add, repeat(0.0), c) for c in cols]
            body = "".join(map(operator.mod, repeat(row), zip(*cols, ds.flags)))
        return ("\n".join(lines) + body + "\n").encode("utf-8")
    obj = {"provenance": dict(sorted(ds.provenance.items())), "columns": ds.columns,
           "flag": ds.flags}
    return (json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")
