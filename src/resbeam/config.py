"""Key-value link configuration with explicit unit suffixes.

The file format is one ``key = value`` assignment per line, ``#`` comments,
and units spelled out on every dimensioned value (``r1 = -1000mm``,
``wavelength = 1064nm``, ``c = -5.64W``); bare numbers mean base SI units
(meters, watts).  Mixing millimeter and meter quantities silently is how
thousand-fold errors happen, hence the suffixes.  The keys are the 13
physical parameters of the link; what a run sweeps and where it writes are
command-line flags of the command that reads them.  Missing keys fall back
to the reference defaults, and every run echoes its full effective
configuration into the output provenance.

The link records live here too: :class:`GainParams`, :class:`PvParams` and
the bundle :class:`SystemParams`, which RunConfig builds to check every key.
They check every parameter range once, when built, and raise UnitError
naming the configuration key; :mod:`resbeam.powerchain` re-exports them.
Every command reads its link through this module, so none has to load the
power chain to check a key.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError, Record, UnitError, require
from .geometry import FLAT, CavityGeometry

_QUANTITY_RE = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(mm|um|nm|m|W)?")

SWEEP_VARIABLES = ("d", "P_in", "P_stored", "P_beam", "R1")

_METERS = {None: 1.0, "m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
# A unit class: (suffix -> scale to SI, the error for any other suffix, formatted
# with the key and the suffix, and whether 'flat', an infinite radius or focal
# length, is a value).
_LENGTH = (_METERS, "expected a length, got watts", False)
_LENGTH_OR_FLAT = (_METERS, _LENGTH[1], True)
_POWER = ({None: 1.0, "W": 1.0}, "expected watts, got {suffix!r}", False)
_DIMENSIONLESS = ({None: 1.0}, "{key} is dimensionless, got unit {suffix!r}", False)

# The unit class of each dimensioned name parse_quantity reads: the config keys, the flag
# values and the sweep variables (a sweep bound takes its variable's).  Others are dimensionless.
_UNITS = {
    "l": _LENGTH, "f": _LENGTH_OR_FLAT, "r1": _LENGTH_OR_FLAT, "r2": _LENGTH_OR_FLAT,
    "d": _LENGTH, "a": _LENGTH, "wavelength": _LENGTH, "c": _POWER, "b1": _POWER,
    "pin": _POWER, "pout": _POWER, "pstored": _POWER, "d_limit": _LENGTH, "target_d": _LENGTH,
    "search_from": _LENGTH, "search_to": _LENGTH,
    "R1": _LENGTH, "P_in": _POWER, "P_stored": _POWER, "P_beam": _POWER,
}


def parse_quantity(token: str, key: str, unit: str | None = None) -> float:
    """Parse a value token for key, in the unit class of the name ``unit`` (default: key)."""
    scales, wrong, flat = _UNITS.get(unit or key, _DIMENSIONLESS)
    token = token.strip()
    if token.lower() == "flat":
        if flat:
            return FLAT
        flat_keys = ", ".join(k for k in _DEFAULTS if _UNITS.get(k) is _LENGTH_OR_FLAT)
        raise UnitError(key, f"'flat' is only valid for {flat_keys}", token, "parse")
    m = _QUANTITY_RE.fullmatch(token)
    if m is None:
        raise UnitError(key, f"cannot parse quantity {token!r}", token, "parse")
    value = float(m.group(1))
    if not math.isfinite(value):
        raise UnitError(key, f"{token!r} is not a finite number", token, "parse")
    suffix = m.group(2)
    if suffix not in scales:
        raise UnitError(key, wrong.format(key=key, suffix=suffix), token, "parse")
    return value * scales[suffix]


class GainParams(Record):
    """Transmitter conversion coefficients.

    eta_stored: electrical-to-stored conversion efficiency, in (0, 1).
    m_overlap: mode/gain overlap efficiency, in (0, 1], so f(d) <= 1 to rounding.
    c: additive extraction constant in watts, the beam threshold: finite and <= 0.
    r_out: output mirror (M2) reflectivity, in (0, 1).
    """

    eta_stored: float
    m_overlap: float
    c: float
    r_out: float

    def __post_init__(self):
        require("eta_stored", self.eta_stored, 0.0 < self.eta_stored < 1.0, "in (0, 1)")
        require("m_overlap", self.m_overlap, 0.0 < self.m_overlap <= 1.0, "in (0, 1]")
        require("c", self.c, -math.inf < self.c <= 0.0, "finite and <= 0")
        require("r_out", self.r_out, 0.0 < self.r_out < 1.0, "in (0, 1)")


class PvParams(Record):
    """Fitted linear photovoltaic law p_pv = a1*p_beam + b1 (maximum power point), b1 <= 0."""

    a1: float
    b1: float

    def __post_init__(self):
        require("a1", self.a1, 0.0 < self.a1 < 1.0, "in (0, 1)")
        require("b1", self.b1, -math.inf < self.b1 <= 0.0, "finite and <= 0")


class SystemParams(Record):
    """Full parameter bundle for one link configuration."""

    geometry: CavityGeometry
    gain: GainParams
    pv: PvParams
    aperture_radius: float
    wavelength: float
    d: float
    p_in: float

    def __post_init__(self):
        for key, v in (("a", self.aperture_radius), ("d", self.d), ("p_in", self.p_in)):
            require(key, v, 0.0 <= v < math.inf, "finite and >= 0")
        require("wavelength", self.wavelength, 0.0 < self.wavelength < math.inf, "finite and > 0")
        # the TEM00 loss divides by wavelength * (l + d), which must not underflow at any d >= 0;
        # the smaller factor is named
        key, v = ("l", self.l) if self.l < self.wavelength else ("wavelength", self.wavelength)
        require(key, v, self.wavelength * self.l > 0.0, "such that wavelength * l > 0")

    @property
    def l(self) -> float:
        return self.geometry.l


_P_IN = 100.0  # W, the reference drive of every bundle a config builds; no key sets it

# The reference link.  Transmitter: 808 nm diode side-pumped Nd:YAG rod lasing
# at 1064 nm, with a measured thermal-lens focal length of 880 mm and a 60 mm
# transmitter size.  Receiver: an R = 0.88 output mirror behind a photovoltaic
# panel fitted by p_pv = 0.3487*p_beam - 1.535 W at its maximum power point.
class RunConfig(Record):
    """The 13 physical keys of a link, each checked by the bundle it fills."""

    l: float = 0.06             # m, gain medium to M1
    f: float = 0.88             # m, thermal lens focal length
    r1: float = -1.0            # m, signed curvature of M1
    # Through-origin receiver curvature 1/(c0*(1/f + c0/r1)) for l, f and r1
    # above; the stable distance range is then contiguous up to ~10.43 m.
    r2: float = 5.246612466124661
    d: float = 1.0              # m, transmission distance
    # Effective aperture radius (m), never measured directly: calibrated so that
    # eta_trans(d = 1 m, p_stored = 30 W) = 0.61, which pins f(1 m) = 0.798.
    a: float = 7.855301511370797e-4
    wavelength: float = 1.064e-6
    eta_stored: float = 0.2849
    m_overlap: float = 1.0
    c: float = -5.64            # W
    r_out: float = 0.88
    a1: float = 0.3487
    b1: float = -1.535          # W

    def __post_init__(self):
        try:
            self.system_params()  # the bundle checks every physical key, naming it
        except UnitError as exc:
            exc.stage = "build"
            raise

    def system_params(self) -> SystemParams:
        """The link bundle: each number in it and in its parts reads the config key it names."""
        def take(cls) -> dict[str, float]:
            return {name: getattr(self, key) for name in cls._fields
                    if (key := _RENAMED.get(name, name)) in _DEFAULTS}

        parts = {slot: part(**take(part)) for slot, part in _PARTS.items()}
        return SystemParams(**parts, **take(SystemParams), p_in=_P_IN)


_DEFAULTS = RunConfig._field_defaults  # config key -> default

# SystemParams field -> the record class of the part it holds; its other fields are numbers
_PARTS = {"geometry": CavityGeometry, "gain": GainParams, "pv": PvParams}
# The one bundle field whose config key is not its own name: every other number
# in SystemParams and in its parts is named as its config key.
_RENAMED = {"aperture_radius": "a"}


def provenance_for(params: SystemParams, **extra) -> dict[str, str]:
    """Full effective parameter snapshot for output embedding, by config key."""
    # getattr, not vars(): a materialised __dict__ slows every later attribute read
    parts = [getattr(params, slot) for slot in _PARTS]
    values = {name: getattr(part, name) for part in parts for name in part._fields}
    values |= {_RENAMED.get(name, name): getattr(params, name)
               for name in params._fields if name not in _PARTS}
    return {k: repr(v) for k, v in values.items()} | {k: str(v) for k, v in extra.items()}


def reference_defaults() -> SystemParams:
    """The reference link: the bundle of RunConfig's defaults."""
    return RunConfig().system_params()


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; unknown keys and bad units are rejected.

    Raises ParseError (with the offending line number) for syntax and
    unknown-key problems, UnitError (naming the key and its line) for unit or
    range violations.  An empty file yields the full default configuration.
    """
    values: dict[str, float] = {}
    lines: dict[str, int] = {}  # key -> the line of its last assignment
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(lineno, f"expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _DEFAULTS:
                raise ParseError(lineno, f"unknown key {key!r}")
            lines[key] = lineno
            values[key] = parse_quantity(value, key)
        return RunConfig(**values)
    except UnitError as exc:
        exc.line = lines.get(exc.key)
        raise


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = []
    for name, v in cfg._asdict().items():
        lines.append(f"{name} = {'flat' if math.isinf(v) else repr(v)}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def override(cfg: RunConfig, **changes) -> RunConfig:
    """Replace the given fields, dropping None values (CLI flag overlay)."""
    real = {k: v for k, v in changes.items() if v is not None}
    return cfg._replace(**real) if real else cfg
