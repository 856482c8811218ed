"""resbeam: resonant-beam wireless power link modeling.

Cavity stability and maximum transmission distance, Gaussian mode radii,
aperture diffraction loss, and the three-stage electrical-to-electrical
power chain, plus deterministic design-space sweeps.

The scalar modules load only the standard library.  The grid drivers and
datasets need numpy, so their names and modules resolve on first use.
"""

from importlib import import_module as _import_module

from .cavity import (
    BRANCHES,
    FLAT,
    ORIGIN,
    TANGENT,
    BeamRadii,
    CavityDerived,
    CavityGeometry,
    DistanceIntervals,
    MaxDistance,
    StabilityLine,
    beam_radii,
    connecting_r2,
    effective_length,
    g_parameters,
    is_stable,
    max_transmission_distance,
    stability_line,
    stable_distance_intervals,
)
from .config import (
    SWEEP_VARIABLES,
    RunConfig,
    load_config,
    parse_config,
    reference_defaults,
    render_config,
)
from .diffraction import (
    associated_laguerre,
    fundamental_loss_vs_distance,
    mode_diffraction_loss,
)
from .errors import (
    ConfigError,
    DegenerateLineError,
    EmptyResultError,
    InfeasibleTargetError,
    NoSolutionError,
    NoStableRegionError,
    ParseError,
    ResbeamError,
    UnboundedStableRangeError,
    UndefinedAtZeroError,
    UnitError,
    UnknownFigureError,
    UnreachableTargetError,
    UnstableConfigurationError,
    WrongSignSlopeError,
)
from .powerchain import (
    EfficiencyBreakdown,
    GainParams,
    PowerState,
    PvParams,
    SystemParams,
    Thresholds,
    beam_power,
    calibrate_aperture,
    end_to_end,
    gain_to_beam_coefficient,
    pv_efficiency,
    pv_output,
    required_input_power,
    stored_power,
    thresholds,
    transmission_efficiency,
)

__version__ = "0.1.0"

# name -> the numpy-importing module that defines it
_LAZY = {
    "Dataset": "dataset",
    "emit_dataset": "dataset",
    "SweepSpec": "explorer",
    "max_distance_vs_r1": "explorer",
    "r1_range_for_distance": "explorer",
    "reproduce_figure": "explorer",
    "sweep": "explorer",
}
_ARRAY_MODULES = ("columns", "dataset", "explorer")


def __getattr__(name: str):
    if name in _ARRAY_MODULES:
        return _import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_ARRAY_MODULES})


__all__ = [n for n in __dir__() if not n.startswith("_")]  # star imports take the lazy names too
