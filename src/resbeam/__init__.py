"""resbeam: resonant-beam wireless power link modeling.

Cavity stability and maximum transmission distance, Gaussian mode radii,
aperture diffraction loss, and the three-stage electrical-to-electrical
power chain, plus deterministic design-space sweeps.

``import resbeam`` loads errors, config (the link records) and geometry (the
cavity terms at one distance).  The reach (cavity), the power chain
(powerchain, which loads diffraction), the grid drivers (explorer) and the
datasets load on first use of one of their names, so a command or script
compiles only the modules it runs.  resbeam imports numpy only in
Dataset.column().  A grid runs on the column kit explorer._column_kit()
where numpy is already loaded, and as rows elsewhere.
"""

from importlib import import_module as _import_module

from .config import (
    SWEEP_VARIABLES,
    GainParams,
    PvParams,
    RunConfig,
    SystemParams,
    load_config,
    parse_config,
    reference_defaults,
    render_config,
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
    UndefinedAtZeroError,
    UnitError,
    UnknownFigureError,
    UnreachableTargetError,
    UnstableConfigurationError,
    WrongSignSlopeError,
)
from .geometry import (
    BRANCHES,
    FLAT,
    ORIGIN,
    TANGENT,
    BeamRadii,
    CavityDerived,
    CavityGeometry,
    StabilityLine,
    beam_radii,
    effective_length,
    g_parameters,
    is_stable,
    stability_line,
)

__version__ = "0.1.0"

# name -> the module, loaded on first use, that defines it
_LAZY = {
    **dict.fromkeys(("DistanceIntervals", "MaxDistance", "connecting_r2",
                     "max_transmission_distance", "r1_range_for_distance",
                     "stable_distance_intervals"), "cavity"),
    **dict.fromkeys(("EfficiencyBreakdown", "PowerState", "Thresholds", "beam_power",
                     "calibrate_aperture", "end_to_end", "gain_to_beam_coefficient",
                     "pv_efficiency", "pv_output", "required_input_power", "stored_power",
                     "thresholds", "transmission_efficiency"), "powerchain"),
    **dict.fromkeys(("associated_laguerre", "fundamental_loss_vs_distance",
                     "mode_diffraction_loss"), "diffraction"),
    **dict.fromkeys(("Dataset", "emit_dataset"), "dataset"),
    **dict.fromkeys(("SweepSpec", "max_distance_vs_r1", "reproduce_figure", "sweep"), "explorer"),
}
_LAZY_MODULES = ("cavity", "dataset", "diffraction", "explorer", "powerchain")


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})


__all__ = [n for n in __dir__() if not n.startswith("_")]  # star imports take the lazy names too
