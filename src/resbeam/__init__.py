"""resbeam: resonant-beam wireless power link modeling.

Cavity stability and maximum transmission distance, Gaussian mode radii,
aperture diffraction loss, and the three-stage electrical-to-electrical
power chain, plus deterministic design-space sweeps.
"""

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
    round_trip_matrix,
    stability_line,
    stable_distance_intervals,
)
from .config import RunConfig, load_config, parse_config, render_config
from .dataset import Dataset, emit_dataset
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
from .explorer import (
    SWEEP_VARIABLES,
    SweepSpec,
    calibrate_aperture,
    max_distance_vs_r1,
    r1_range_for_distance,
    reproduce_figure,
    required_input_power,
    sweep,
)
from .powerchain import (
    EfficiencyBreakdown,
    GainParams,
    PowerState,
    PvParams,
    SystemParams,
    Thresholds,
    beam_power,
    end_to_end,
    gain_to_beam_coefficient,
    pv_efficiency,
    pv_output,
    reference_defaults,
    stored_power,
    thresholds,
    transmission_efficiency,
)

__version__ = "0.1.0"
