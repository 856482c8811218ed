import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resbeam import (
    ParseError,
    RunConfig,
    UnitError,
    parse_config,
    reference_defaults,
    render_config,
)

REF = RunConfig()  # the reference link

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
OUTSIDE_UNIT = st.floats(max_value=0.0) | st.floats(min_value=1.0) | NON_FINITE
# config key -> values outside its range; +inf is FLAT, valid for f, r1, r2
INVALID = {
    "l": st.floats(max_value=0.0) | NON_FINITE,
    "f": st.sampled_from([0.0, -0.0, math.nan, -math.inf]),
    "r1": st.sampled_from([0.0, -0.0, math.nan, -math.inf]),
    "r2": st.sampled_from([0.0, -0.0, math.nan, -math.inf]),
    "d": st.floats(max_value=-1e-300) | NON_FINITE,
    "a": st.floats(max_value=-1e-300) | NON_FINITE,
    "wavelength": st.floats(max_value=0.0) | NON_FINITE,
    "eta_stored": OUTSIDE_UNIT,
    "m_overlap": st.floats(max_value=0.0) | NON_FINITE,
    "c": NON_FINITE,
    "r_out": OUTSIDE_UNIT,
    "a1": OUTSIDE_UNIT,
    "b1": NON_FINITE,
}
BUNDLE_PARTS = {
    "geometry": ("l", "f", "r1", "r2"),
    "gain": ("eta_stored", "m_overlap", "c", "r_out"),
    "pv": ("a1", "b1"),
}


def bundle_with(key, value):
    """Rebuild the reference bundle part that holds a config key, with that key changed."""
    ref = reference_defaults()
    for part, keys in BUNDLE_PARTS.items():
        if key in keys:
            return replace(getattr(ref, part), **{key: value})
    return replace(ref, **{"aperture_radius" if key == "a" else key: value})


@pytest.mark.parametrize("key", sorted(INVALID))
@given(data=st.data())
def test_config_and_bundle_reject_the_same_values(key, data):
    value = data.draw(INVALID[key], label=key)
    for build in (lambda: RunConfig(**{key: value}), lambda: bundle_with(key, value)):
        with pytest.raises(UnitError) as err:
            build()
        assert err.value.key == key


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.l == 0.06
        assert cfg.f == 0.88
        assert cfg.r1 == -1.0
        assert cfg.r2 == 5.246612466124661
        assert cfg.a == 7.855301511370797e-4
        assert cfg.wavelength == 1.064e-6
        assert cfg.eta_stored == 0.2849
        assert cfg.c == -5.64
        assert cfg.a1 == 0.3487
        assert cfg.b1 == -1.535

    def test_millimeter_suffix(self):
        cfg = parse_config("r1 = -1000mm\n")
        assert cfg.r1 == -1.0

    def test_nanometer_and_bare(self):
        cfg = parse_config("wavelength = 1064nm\nd = 2.5\n")
        assert cfg.wavelength == pytest.approx(1.064e-6, rel=1e-15)
        assert cfg.d == 2.5

    def test_flat_values(self):
        cfg = parse_config("f = flat\nr1 = Flat\n")
        assert math.isinf(cfg.f) and math.isinf(cfg.r1)

    def test_flat_rejected_for_lengths(self):
        with pytest.raises(UnitError):
            parse_config("l = flat\n")

    def test_watts(self):
        cfg = parse_config("c = -5.64W\nb1 = -1.535\n")
        assert cfg.c == -5.64

    def test_watt_suffix_on_length_rejected(self):
        with pytest.raises(UnitError):
            parse_config("l = 5W\n")

    def test_unit_on_dimensionless_rejected(self):
        with pytest.raises(UnitError) as err:
            parse_config("eta_stored = 0.3mm\n")
        assert "eta_stored" in str(err.value)

    def test_out_of_range_is_unit_error(self):
        with pytest.raises(UnitError) as err:
            parse_config("eta_stored = 1.5\n")
        assert "eta_stored" in str(err.value)
        for key in ("d", "a", "wavelength"):
            with pytest.raises(UnitError) as err:
                RunConfig(**{key: math.nan})
            assert err.value.key == key
        with pytest.raises(UnitError) as err:
            parse_config("d = 1e999m\n")
        assert err.value.key == "d"

    @pytest.mark.parametrize("text, key, line, value", [
        ("# link\n\nl = 5W\n", "l", 3, "5W"),  # a unit error while parsing
        ("eta_stored = 0.3\nd = 2m\neta_stored = 1.5\n", "eta_stored", 3, "1.5"),  # a range error
        ("d = -1m\nc = -5W\n", "d", 1, "-1.0"),
    ])
    def test_value_error_names_key_line_and_value(self, text, key, line, value):
        with pytest.raises(UnitError) as err:
            parse_config(text)
        assert (err.value.key, err.value.line, err.value.value) == (key, line, value)

    def test_unknown_key_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("l = 60mm\nbogus = 3\n")
        assert err.value.line == 2

    def test_syntax_error_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("# comment\n\nl 60mm\n")
        assert err.value.line == 3

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nl = 80mm\n")
        assert cfg.l == pytest.approx(0.08)

    def test_later_assignment_wins(self):
        cfg = parse_config("d = 1m\nd = 2m\n")
        assert cfg.d == 2.0

    # what a run sweeps and where it writes are command-line flags, not config keys
    @pytest.mark.parametrize("key", ["sweep_var", "sweep_from", "sweep_to", "sweep_points",
                                     "out_path", "out_format"])
    def test_run_setting_is_an_unknown_key(self, key):
        with pytest.raises(ParseError) as err:
            parse_config(f"d = 1m\n{key} = 1\n")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: unknown key {key!r}"
        with pytest.raises(TypeError):
            RunConfig(**{key: 1})

    def test_zero_curvature_rejected(self):
        with pytest.raises(UnitError):
            parse_config("r2 = 0\n")


class TestRenderRoundTrip:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_modified_round_trip(self):
        cfg = parse_config("f = flat\nr1 = -900mm\nd = 3.25m\nc = -6W\neta_stored = 0.3\n")
        assert parse_config(render_config(cfg)) == cfg

    def test_full_precision_floats(self):
        cfg = parse_config(f"a = {REF.a!r}\n")
        assert parse_config(render_config(cfg)).a == REF.a


class TestSystemParams:
    def test_conversion(self):
        p = RunConfig().system_params()
        assert p.geometry.l == 0.06
        assert p.gain.eta_stored == 0.2849
        assert p.pv.b1 == -1.535
        assert p.aperture_radius == REF.a
