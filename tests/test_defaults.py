"""The reference values on RunConfig must stay consistent with their derivations."""

import pytest

from resbeam import RunConfig, connecting_r2, gain_to_beam_coefficient


def test_default_r2_is_the_through_origin_solution():
    cfg = RunConfig()
    assert cfg.r2 == pytest.approx(connecting_r2(cfg.l, cfg.f, cfg.r1, "origin"), rel=1e-14)


def test_default_aperture_pins_the_calibration_anchor():
    # the aperture is defined by f(1 m) = 0.61 - c/30 = 0.798
    p = RunConfig().system_params()
    assert gain_to_beam_coefficient(1.0, p) == pytest.approx(0.798, rel=1e-12)
