"""Key-value run configuration with explicit unit suffixes.

The file format is one ``key = value`` assignment per line, ``#`` comments,
and units spelled out on every dimensioned value (``r1 = -1000mm``,
``wavelength = 1064nm``, ``c = -5.64W``); bare numbers mean base SI units
(meters, watts).  Mixing millimeter and meter quantities silently is how
thousand-fold errors happen, hence the suffixes.  Missing keys fall back to
the reference defaults, and every run echoes its full effective
configuration into the output provenance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from . import defaults as dflt
from .cavity import FLAT, CavityGeometry
from .errors import ParseError, UnitError
from .explorer import SWEEP_VARIABLES
from .powerchain import GainParams, PvParams, SystemParams

_LENGTH_SCALES = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_QUANTITY_RE = re.compile(r"([-+]?[\d.]+(?:[eE][-+]?\d+)?)\s*(mm|um|nm|m|W)?")

LENGTH_KEYS = ("l", "f", "r1", "r2", "d", "a", "wavelength")
FLAT_OK_KEYS = ("f", "r1", "r2")
# pin/pout/pstored are CLI flag names routed through the same parser
POWER_KEYS = ("c", "b1", "pin", "pout", "pstored")
DIMLESS_KEYS = ("eta_stored", "m_overlap", "r_out", "a1", "eta")


def parse_quantity(token: str, key: str) -> float:
    """Parse a value token for the given key, applying unit suffixes."""
    token = token.strip()
    if token.lower() == "flat":
        if key in FLAT_OK_KEYS:
            return FLAT
        raise UnitError(key, "'flat' is only valid for f, r1, r2")
    m = _QUANTITY_RE.fullmatch(token)
    if m is None:
        raise UnitError(key, f"cannot parse quantity {token!r}")
    try:
        value = float(m.group(1))
    except ValueError:
        raise UnitError(key, f"cannot parse number {m.group(1)!r}") from None
    if not math.isfinite(value):
        raise UnitError(key, f"{token!r} is not a finite number")
    suffix = m.group(2)
    if key in LENGTH_KEYS or key in ("sweep_from", "sweep_to"):
        if suffix == "W" and key in LENGTH_KEYS:
            raise UnitError(key, "expected a length, got watts")
        if suffix in _LENGTH_SCALES:
            return value * _LENGTH_SCALES[suffix]
        if suffix is None or suffix == "W":
            return value
        raise UnitError(key, f"unknown unit {suffix!r}")
    if key in POWER_KEYS:
        if suffix in (None, "W"):
            return value
        raise UnitError(key, f"expected watts, got {suffix!r}")
    if suffix is not None:
        raise UnitError(key, f"{key} is dimensionless, got unit {suffix!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated physical parameters plus sweep and output settings."""

    l: float = dflt.DEFAULT_L
    f: float = dflt.DEFAULT_F
    r1: float = dflt.DEFAULT_R1
    r2: float = dflt.DEFAULT_R2
    d: float = dflt.DEFAULT_D
    a: float = dflt.DEFAULT_APERTURE
    wavelength: float = dflt.DEFAULT_WAVELENGTH
    eta_stored: float = dflt.DEFAULT_ETA_STORED
    m_overlap: float = dflt.DEFAULT_M_OVERLAP
    c: float = dflt.DEFAULT_C
    r_out: float = dflt.DEFAULT_R_OUT
    a1: float = dflt.DEFAULT_A1
    b1: float = dflt.DEFAULT_B1
    sweep_var: str = "d"
    sweep_from: float = 0.1
    sweep_to: float = 10.0
    sweep_points: int = 200
    out_path: str = ""
    out_format: str = "csv"

    def __post_init__(self):
        self.system_params()  # the bundle checks every physical key, naming it
        if self.sweep_var not in SWEEP_VARIABLES:
            raise UnitError(
                "sweep_var", f"must be one of {SWEEP_VARIABLES}, got {self.sweep_var!r}")
        if not self.sweep_from < self.sweep_to:
            raise UnitError("sweep_from", "sweep_from must be < sweep_to")
        if self.sweep_points < 1:
            raise UnitError("sweep_points", f"must be >= 1, got {self.sweep_points}")
        if self.out_format not in ("csv", "json"):
            raise UnitError("out_format", f"must be csv or json, got {self.out_format!r}")

    def system_params(self) -> SystemParams:
        return SystemParams(
            geometry=CavityGeometry(l=self.l, f=self.f, r1=self.r1, r2=self.r2),
            gain=GainParams(
                eta_stored=self.eta_stored,
                m_overlap=self.m_overlap,
                c=self.c,
                r_out=self.r_out,
            ),
            pv=PvParams(a1=self.a1, b1=self.b1),
            aperture_radius=self.a,
            wavelength=self.wavelength,
            d=self.d,
        )


_FIELD_NAMES = tuple(f.name for f in fields(RunConfig))


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; unknown keys and bad units are rejected.

    Raises ParseError (with the offending line number) for syntax and
    unknown-key problems, UnitError (naming the key) for unit or range
    violations.  An empty file yields the full default configuration.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _FIELD_NAMES:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in ("sweep_var", "out_path", "out_format"):
            values[key] = value
        elif key == "sweep_points":
            try:
                values[key] = int(value)
            except ValueError:
                raise UnitError(key, f"expected an integer, got {value!r}") from None
        else:
            values[key] = parse_quantity(value, key)
    return RunConfig(**values)


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            txt = "flat" if math.isinf(v) else repr(v)
        else:
            txt = str(v)
        lines.append(f"{f.name} = {txt}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def override(cfg: RunConfig, **changes) -> RunConfig:
    """Replace the given fields, dropping None values (CLI flag overlay)."""
    real = {k: v for k, v in changes.items() if v is not None}
    return replace(cfg, **real) if real else cfg
