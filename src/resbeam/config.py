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
from .powerchain import GainParams, PvParams, SystemParams

_QUANTITY_RE = re.compile(r"([-+]?[\d.]+(?:[eE][-+]?\d+)?)\s*(mm|um|nm|m|W)?")

SWEEP_VARIABLES = ("d", "P_in", "P_stored", "P_beam", "R1")

_METERS = {None: 1.0, "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
# A unit class: (suffix -> scale to SI, the error for any other suffix, formatted
# with the key and the suffix, and whether 'flat', an infinite radius or focal
# length, is a value).
_LENGTH = (_METERS, "expected a length, got watts", False)
_LENGTH_OR_FLAT = (_METERS, _LENGTH[1], True)
_POWER = ({None: 1.0, "W": 1.0}, "expected watts, got {suffix!r}", False)
_SPAN = ({**_METERS, "W": 1.0}, "", False)  # a sweep bound: a length or a power, as swept
_DIMENSIONLESS = ({None: 1.0}, "{key} is dimensionless, got unit {suffix!r}", False)

# The unit class of every dimensioned name parse_quantity reads: the config
# keys, then the values of command-line flags.  Any other name is dimensionless.
_UNITS = {
    "l": _LENGTH, "f": _LENGTH_OR_FLAT, "r1": _LENGTH_OR_FLAT, "r2": _LENGTH_OR_FLAT,
    "d": _LENGTH, "a": _LENGTH, "wavelength": _LENGTH, "c": _POWER, "b1": _POWER,
    "sweep_from": _SPAN, "sweep_to": _SPAN,
    "pin": _POWER, "pout": _POWER, "pstored": _POWER, "d_limit": _LENGTH, "target_d": _LENGTH,
    "search_from": _LENGTH_OR_FLAT, "search_to": _LENGTH_OR_FLAT,
}


def parse_quantity(token: str, key: str) -> float:
    """Parse a value token for the given key, applying the suffixes of its unit class."""
    scales, wrong, flat = _UNITS.get(key, _DIMENSIONLESS)
    token = token.strip()
    if token.lower() == "flat":
        if flat:
            return FLAT
        flat_keys = ", ".join(k for k in _DEFAULTS if _UNITS.get(k) is _LENGTH_OR_FLAT)
        raise UnitError(key, f"'flat' is only valid for {flat_keys}")
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
    if suffix not in scales:
        raise UnitError(key, wrong.format(key=key, suffix=suffix))
    return value * scales[suffix]


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
        """The link bundle: each number in it and in its parts reads the config key it names."""
        def take(cls) -> dict[str, float]:
            return {f.name: getattr(self, key) for f in fields(cls)
                    if (key := _RENAMED.get(f.name, f.name)) in _DEFAULTS}

        parts = {slot: part(**take(part)) for slot, part in _PARTS.items()}
        return SystemParams(**parts, **take(SystemParams))


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}  # config key -> default

# SystemParams field -> the dataclass of the part it holds; its other fields are numbers
_PARTS = {"geometry": CavityGeometry, "gain": GainParams, "pv": PvParams}
# The one bundle field whose config key is not its own name: every other number
# in SystemParams and in its parts is named as its config key.
_RENAMED = {"aperture_radius": "a"}


def provenance_for(params: SystemParams, **extra) -> dict[str, str]:
    """Full effective parameter snapshot for output embedding, by config key."""
    # getattr, not vars(): a materialised __dict__ slows every later attribute read
    parts = [getattr(params, slot) for slot in _PARTS]
    values = {f.name: getattr(part, f.name) for part in parts for f in fields(part)}
    values |= {_RENAMED.get(f.name, f.name): getattr(params, f.name)
               for f in fields(params) if f.name not in _PARTS}
    return {k: repr(v) for k, v in values.items()} | {k: str(v) for k, v in extra.items()}


def reference_defaults() -> SystemParams:
    """The reference configuration (see :mod:`resbeam.defaults`)."""
    return RunConfig().system_params()


def read_value(key: str, text: str) -> float | int | str:
    """A config key's or a command-line value's value from its text.

    Config files and flags both go through it.  The value is a quantity of
    the key's unit class, unless the key's default is an int or a str.
    """
    default = _DEFAULTS.get(key, 0.0)
    if isinstance(default, float):
        return parse_quantity(text, key)
    try:
        return type(default)(text)
    except ValueError:
        raise UnitError(key, f"expected an integer, got {text!r}") from None


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
        if key not in _DEFAULTS:
            raise ParseError(lineno, f"unknown key {key!r}")
        values[key] = read_value(key, value)
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
