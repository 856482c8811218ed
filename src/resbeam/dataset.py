"""Columnar sweep results and their byte-deterministic serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import require

FORMATS = ("csv", "json")


@dataclass
class Dataset:
    """Named numeric series plus a per-row flag and a provenance snapshot.

    Flags are short tokens ("" for clean rows); rows that could not be
    evaluated carry zeros in the numeric columns and a nonempty flag, never
    NaN or inf.  Provenance holds the full effective parameter set of the run.
    """

    columns: dict[str, np.ndarray]
    flags: list[str] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.columns = {k: np.asarray(v, dtype=float) for k, v in self.columns.items()}
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have unequal lengths: {lengths}")
        n = lengths.pop() if lengths else 0
        if not self.flags:
            self.flags = [""] * n
        if len(self.flags) != n:
            raise ValueError(f"{len(self.flags)} flags for {n} rows")
        for name, col in self.columns.items():
            if not np.isfinite(col).all():
                raise ValueError(f"column {name} contains NaN or inf; flag the row instead")

    @property
    def n_rows(self) -> int:
        return len(self.flags)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]


def _csv_cells(col: np.ndarray) -> list[str]:
    """9-significant-digit cells; -0.0 prints as 0."""
    # '%.9g' % x is format(x, '.9g'), a little faster
    return ["0" if x == 0 else "%.9g" % x for x in col.tolist()]


def emit_dataset(ds: Dataset, fmt: str = "csv") -> bytes:
    """Serialize a Dataset; identical inputs give identical bytes.

    CSV: '#'-prefixed provenance comment lines (sorted by key), a header of
    name_unit columns plus a trailing ``flag`` column, 9-significant-digit
    values, LF line endings.  JSON: ``{"provenance", "columns", "flag"}``.
    """
    require("format", fmt, fmt in FORMATS, f"one of {FORMATS}")
    if fmt == "csv":
        lines = [f"# {k} = {v}" for k, v in sorted(ds.provenance.items())]
        lines.append(",".join([*ds.columns, "flag"]))
        cells = [_csv_cells(col) for col in ds.columns.values()]
        lines.extend(map(",".join, zip(*cells, ds.flags)))
        return ("\n".join(lines) + "\n").encode("utf-8")
    obj = {
        "provenance": dict(sorted(ds.provenance.items())),
        "columns": {k: v.tolist() for k, v in ds.columns.items()},
        "flag": list(ds.flags),
    }
    return (json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")
