"""The frozen reference constants must stay consistent with their derivations."""

import pytest

from resbeam import RunConfig, connecting_r2, gain_to_beam_coefficient, reference_defaults
from resbeam.defaults import (
    DEFAULT_APERTURE,
    DEFAULT_F,
    DEFAULT_L,
    DEFAULT_R1,
    DEFAULT_R2,
)


def test_default_r2_is_the_through_origin_solution():
    assert DEFAULT_R2 == pytest.approx(
        connecting_r2(DEFAULT_L, DEFAULT_F, DEFAULT_R1, "origin"), rel=1e-14
    )


def test_default_aperture_pins_the_calibration_anchor():
    # the aperture is defined by f(1 m) = 0.61 - c/30 = 0.798
    p = reference_defaults()
    assert gain_to_beam_coefficient(1.0, p) == pytest.approx(0.798, rel=1e-12)


def test_config_defaults_mirror_the_constants():
    cfg = RunConfig()
    assert cfg.r2 == DEFAULT_R2
    assert cfg.a == DEFAULT_APERTURE
    assert cfg.system_params() == reference_defaults()
