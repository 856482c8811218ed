"""Every range check raises UnitError naming its key, in one wording."""

import math

import numpy as np
import pytest

from resbeam import (
    Dataset,
    SweepSpec,
    UnitError,
    associated_laguerre,
    beam_radii,
    calibrate_aperture,
    connecting_r2,
    emit_dataset,
    fundamental_loss_vs_distance,
    gain_to_beam_coefficient,
    is_stable,
    mode_diffraction_loss,
    pv_output,
    r1_range_for_distance,
    reference_defaults,
    required_input_power,
    stable_distance_intervals,
    stored_power,
)
from resbeam.columns import beam_radii_columns, connecting_r2_columns, stored_column
from resbeam.powerchain import beam_at

REF = reference_defaults()
GEOM = REF.geometry
WINDOW = (-1.5, -0.5)

# (check, a call that fails it, the key, the repr of the bad value)
CHECKS = [
    ("cavity-d", lambda: is_stable(GEOM, -1.0), "d", "-1.0"),
    ("d_limit", lambda: stable_distance_intervals(GEOM, 0.0), "d_limit", "0.0"),
    ("connecting_r2-branch", lambda: connecting_r2(0.06, 0.88, -1.0, "up"), "branch", "'up'"),
    ("target_d", lambda: r1_range_for_distance(math.nan, 0.06, 0.88, "origin", WINDOW),
     "target_d", "nan"),
    ("search-window-order", lambda: r1_range_for_distance(5.0, 0.06, 0.88, "origin", (-0.5, -1.5)),
     "search_from", "-0.5"),
    ("r1_range-branch", lambda: r1_range_for_distance(5.0, 0.06, 0.88, "up", WINDOW),
     "branch", "'up'"),
    ("beam_radii-wavelength", lambda: beam_radii(GEOM, 1.0, 0.0), "wavelength", "0.0"),
    ("beam_radii_columns-wavelength", lambda: beam_radii_columns(GEOM, [1.0], -1.0),
     "wavelength", "-1.0"),
    # a non-finite d was an "unstable" row here, where beam_radii raises
    ("beam_radii_columns-d", lambda: beam_radii_columns(GEOM, [1.0, math.nan], 1.064e-6),
     "d", "nan"),
    ("connecting_r2_columns-branch", lambda: connecting_r2_columns(0.06, 0.88, [-1.0], "up"),
     "branch", "'up'"),
    ("drive-column", lambda: stored_column(np.array([1.0, -2.0]), REF.gain), "p_in", "-2.0"),
    ("laguerre-n", lambda: associated_laguerre(-1, 0, 0.5), "n", "-1"),
    ("laguerre-m", lambda: associated_laguerre(1, -2, 0.5), "m", "-2"),
    ("mode-m", lambda: mode_diffraction_loss(41, 0, 1e-3, 1e-3), "m", "41"),
    ("mode-n", lambda: mode_diffraction_loss(0, 0.5, 1e-3, 1e-3), "n", "0.5"),
    ("spot", lambda: mode_diffraction_loss(0, 0, 1e-3, 0.0), "spot", "0.0"),
    ("mode-aperture", lambda: mode_diffraction_loss(0, 0, -1e-3, 1e-3),
     "aperture_radius", "-0.001"),
    ("tem00-wavelength", lambda: fundamental_loss_vs_distance(1e-3, math.inf, 0.06, 1.0),
     "wavelength", "inf"),
    ("tem00-l+d", lambda: fundamental_loss_vs_distance(1e-3, 1.064e-6, 0.06, -1.0),
     "l + d", "-0.94"),
    ("tem00-aperture", lambda: fundamental_loss_vs_distance(math.nan, 1.064e-6, 0.06, 1.0),
     "aperture_radius", "nan"),
    ("sweep-variable", lambda: SweepSpec("q", (1.0,), REF), "variable", "'q'"),
    ("grid-increasing", lambda: SweepSpec("d", (1.0, 2.0, 2.0), REF), "grid", "(2.0, 2.0)"),
    ("grid-empty", lambda: SweepSpec("d", (), REF), "grid", "()"),
    ("grid-range", lambda: SweepSpec("d", (-5.0, 1.0), REF), "grid", "-5.0"),
    ("stored_power", lambda: stored_power(-1.0, REF.gain), "p_in", "-1.0"),
    ("gain_to_beam", lambda: gain_to_beam_coefficient(math.inf, REF), "d", "inf"),
    ("beam_at", lambda: beam_at(-1.0, 0.5, REF.gain), "p_stored", "-1.0"),
    ("pv_output", lambda: pv_output(math.nan, REF.pv), "p_beam", "nan"),
    ("required_pin", lambda: required_input_power(0.0, 1.0, REF), "target_p_out", "0.0"),
    ("calibrate-p_stored", lambda: calibrate_aperture(1.0, 0.0, 0.5, REF), "p_stored", "0.0"),
    ("calibrate-d", lambda: calibrate_aperture(-1.0, 30.0, 0.5, REF), "d", "-1.0"),
    ("calibrate-eta", lambda: calibrate_aperture(1.0, 30.0, math.nan, REF),
     "eta_trans_target", "nan"),
    ("format", lambda: emit_dataset(Dataset({"x": [1.0]}), "xml"), "format", "'xml'"),
]


@pytest.mark.parametrize("call, key, value", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS])
def test_range_check_raises_unit_error_naming_its_key(call, key, value):
    with pytest.raises(UnitError) as err:
        call()
    assert (err.value.key, err.value.value) == (key, value)
    assert str(err.value).startswith(f"{key}: must be ")
    assert str(err.value).endswith(f", got {value}")
