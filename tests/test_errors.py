"""Every range check raises UnitError naming its key, in one wording."""

import math

import pytest

from resbeam import (
    Dataset,
    DistanceIntervals,
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
    max_distance_vs_r1,
    mode_diffraction_loss,
    pv_output,
    r1_range_for_distance,
    reference_defaults,
    required_input_power,
    stable_distance_intervals,
    stored_power,
)
from resbeam.powerchain import beam_at

REF = reference_defaults()
GEOM = REF.geometry
WINDOW = (-1.5, -0.5)

# (check, a call that fails it, the key, the repr of the bad value)
CHECKS = [
    ("cavity-d", lambda: is_stable(GEOM, -1.0), "d", "-1.0"),
    ("d_limit", lambda: stable_distance_intervals(GEOM, 0.0), "d_limit", "0.0"),
    ("intervals", lambda: DistanceIntervals(((0.0, 2.0), (1.0, 3.0))), "intervals", "(1.0, 3.0)"),
    ("connecting_r2-branch", lambda: connecting_r2(0.06, 0.88, -1.0, "up"), "branch", "'up'"),
    ("connecting_r2-r1", lambda: connecting_r2(0.06, 0.88, -math.inf, "origin"), "r1", "-inf"),
    # 1/r1 overflows, so r2 would be 0: the R1 that was set is named, not the r2 it gives
    ("connecting_r2-r2", lambda: connecting_r2(0.06, 0.88, 1e-320, "origin"), "r1", "1e-320"),
    # c0*(phi + c0/r1) underflows to 0, so r2 would be infinite
    ("connecting_r2-rho2", lambda: connecting_r2(1e308, 1.0000000000000004e308,
                                                 -5.551115123125724e292, "tangent"),
     "r1", "-5.551115123125724e+292"),
    ("target_d", lambda: r1_range_for_distance(math.nan, 0.06, 0.88, "origin", WINDOW),
     "target_d", "nan"),
    ("target_d-negative", lambda: r1_range_for_distance(-5.0, 0.06, 0.88, "origin", WINDOW),
     "target_d", "-5.0"),
    ("search-window-order", lambda: r1_range_for_distance(5.0, 0.06, 0.88, "origin", (-0.5, -1.5)),
     "search_from", "-0.5"),
    ("r1_range-branch", lambda: r1_range_for_distance(5.0, 0.06, 0.88, "up", WINDOW),
     "branch", "'up'"),
    ("beam_radii-wavelength", lambda: beam_radii(GEOM, 1.0, 0.0), "wavelength", "0.0"),
    ("max_distance_vs_r1-branch", lambda: max_distance_vs_r1(0.06, 0.88, [-1.0], "up"),
     "branch", "'up'"),
    ("laguerre-n", lambda: associated_laguerre(-1, 0, 0.5), "n", "-1"),
    ("laguerre-m", lambda: associated_laguerre(1, -2, 0.5), "m", "-2"),
    ("laguerre-n-nan", lambda: associated_laguerre(math.nan, 0, 0.5), "n", "nan"),
    ("laguerre-n-fraction", lambda: associated_laguerre(1.5, 0, 0.5), "n", "1.5"),
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
    # the divisor wavelength * (l + d) of the loss exponent would underflow to 0
    ("tem00-underflow", lambda: fundamental_loss_vs_distance(1e-3, 5e-324, 0.06, 0.1),
     "wavelength", "5e-324"),
    ("link-underflow", lambda: REF._replace(wavelength=5e-324), "wavelength", "5e-324"),
    # the same product, with l the factor that underflows it: l is named
    ("link-underflow-l", lambda: REF._replace(geometry=GEOM._replace(l=1e-320)), "l", "1e-320"),
    ("sweep-variable", lambda: SweepSpec("q", (1.0,), REF), "variable", "'q'"),
    ("grid-increasing", lambda: SweepSpec("d", (1.0, 2.0, 2.0), REF), "grid", "(2.0, 2.0)"),
    ("grid-empty", lambda: SweepSpec("d", (), REF), "grid", "()"),
    ("grid-range", lambda: SweepSpec("d", (-5.0, 1.0), REF), "grid", "-5.0"),
    # not a sequence of numbers: a string is one of characters, a float does not iterate,
    # and a nested list holds lists
    ("grid-text", lambda: SweepSpec("d", "abc", REF), "grid", "'abc'"),
    ("grid-digits", lambda: SweepSpec("d", "123", REF), "grid", "'123'"),
    ("grid-bytes", lambda: SweepSpec("d", b"123", REF), "grid", "b'123'"),
    ("grid-scalar", lambda: SweepSpec("d", 5.0, REF), "grid", "5.0"),
    ("grid-nested", lambda: SweepSpec("d", [[1.0, 2.0]], REF), "grid", "[[1.0, 2.0]]"),
    ("grid-r1-text", lambda: max_distance_vs_r1(0.06, 0.88, [-1.0, "x"], "origin"),
     "grid", "[-1.0, 'x']"),
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
