"""Columnar sweep results and their byte-deterministic serialization, without
numpy: C formats each CSV row with one %-format; JSON writes each float column
with orjson and the rest with the standard encoder, in the bytes that
``json.dumps`` alone would write."""

from __future__ import annotations

import json
import math
import operator
import re
from itertools import repeat

from .errors import require

FORMATS = ("csv", "json")
# orjson writes repr's shortest digits, but lays out two kinds of token its own way: an
# exponent (1e16, 1e-7 for 1e+16, 1e-07) and 1e-5 <= |x| < 1e-4 without one (0.00001)
_NOT_REPR = rb"(?<![0-9.e+-])-?(?:0\.0000[0-9]*|[0-9.]+e-?[0-9]+)"


class Dataset:
    """Numeric series named by str plus a per-row flag and a provenance snapshot.

    Flags are short tokens ("" for clean rows; none given means all clean);
    rows that could not be evaluated carry zeros in the numeric columns and a
    nonempty flag, never NaN or inf.  Provenance holds the full effective
    parameter set of the run.  The columns are stored as lists of floats.
    """

    def __init__(self, columns: dict, flags: list[str] | None = None,
                 provenance: dict[str, str] | None = None):
        for name in columns:  # a CSV header cell and a JSON key alike
            require("columns", name, isinstance(name, str), "a str")
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
    values (0 for -0.0 too), LF line endings.  JSON: ``{"provenance", "columns", "flag"}``,
    byte for byte what ``json.dumps(..., separators=(",", ":"))`` writes: orjson writes
    each float column, the tokens it lays out unlike ``repr`` are rewritten by ``repr``,
    and a NaN or inf, which it writes as ``null``, raises ValueError.
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
    import orjson  # here only: its import (several ms) is paid by JSON datasets alone

    encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
    columns = []
    for name, col in ds.columns.items():
        text = orjson.dumps(col)
        if b"null" in text:
            raise ValueError(f"column {name} contains NaN or inf")
        if b"e" in text or b"0.0000" in text:
            text = re.sub(_NOT_REPR, lambda m: repr(float(m[0])).encode(), text)
        columns.append(b"%s:%s" % (encode(name).encode(), text))
    return b'{"provenance":%s,"columns":{%s},"flag":%s}\n' % (
        encode(dict(sorted(ds.provenance.items()))).encode(), b",".join(columns),
        encode(ds.flags).encode())
