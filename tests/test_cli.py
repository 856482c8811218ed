import argparse
import json
import math
import subprocess
import sys
from dataclasses import fields

import pytest

from resbeam import RunConfig, UnitError, cli, config
from resbeam.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPointCommands:
    def test_stability_record(self, capsys):
        code, out = run_cli(
            capsys, "stability", "--l", "60mm", "--f", "880mm",
            "--r1", "-1000mm", "--r2", "5246.6mm", "--d", "1m",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["stable"] is True
        assert rec["g1"] == pytest.approx(0.8554545454545455, rel=1e-9)
        assert rec["radii"]["w_gain"] > 0
        assert rec["params"]["r1"] == "-1.0"

    def test_intervals(self, capsys):
        code, out = run_cli(capsys, "intervals", "--d-limit", "20m")
        assert code == 0
        rec = json.loads(out)
        assert len(rec["intervals"]) == 2
        assert rec["intervals"][1][1] == pytest.approx(10.428834688346878, rel=1e-9)

    def test_max_distance(self, capsys):
        code, out = run_cli(capsys, "max-distance")
        rec = json.loads(out)
        assert code == 0
        assert rec["d_max"] == pytest.approx(10.428834688346878, rel=1e-9)
        assert rec["contiguous"] is True

    def test_connect_r2_both_branches(self, capsys):
        code, out = run_cli(capsys, "connect-r2", "--branch", "origin")
        rec = json.loads(out)
        assert code == 0
        assert rec["r2"] == pytest.approx(5.246612466124661, rel=1e-9)
        assert rec["slope"] > 0
        assert rec["intercept"] == pytest.approx(0.0, abs=1e-12)
        code, out = run_cli(capsys, "connect-r2", "--branch", "tangent")
        rec = json.loads(out)
        assert rec["r2"] == pytest.approx(-5.246612466124661, rel=1e-9)
        assert rec["slope"] < 0

    def test_power(self, capsys):
        code, out = run_cli(capsys, "power", "--pin", "100W", "--d", "1m")
        rec = json.loads(out)
        assert code == 0
        assert rec["p_stored"] == pytest.approx(28.49, rel=1e-12)
        assert rec["eta_all"] == pytest.approx(0.04426033474, rel=1e-9)

    def test_thresholds(self, capsys):
        code, out = run_cli(capsys, "thresholds", "--d", "1m")
        rec = json.loads(out)
        assert code == 0
        assert rec["p_beam_th"] == pytest.approx(4.402064812159449, rel=1e-9)

    def test_required_pin(self, capsys):
        code, out = run_cli(capsys, "design", "required-pin", "--pout", "1W", "--d", "1m")
        rec = json.loads(out)
        assert code == 0
        assert rec["p_in_required"] == pytest.approx(56.784025164971794, rel=1e-9)

    def test_r1_range(self, capsys):
        code, out = run_cli(capsys, "design", "r1-range", "--target-d", "5m")
        rec = json.loads(out)
        assert code == 0
        lo, hi = rec["intervals"][0]
        assert lo == pytest.approx(-1.3075, abs=2e-3)
        assert hi == pytest.approx(-0.8200, abs=2e-3)

    def test_calibrate(self, capsys):
        code, out = run_cli(capsys, "calibrate", "--d", "1m", "--pstored", "30W", "--eta", "0.61")
        rec = json.loads(out)
        assert code == 0
        assert rec["aperture_radius"] == pytest.approx(7.855301511370797e-4, rel=1e-6)

    def test_records_never_hold_a_non_standard_constant(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                cli._print_record({"x": bad})


class TestDatasets:
    def test_reproduce_csv_stdout(self, capsys):
        code, out = run_cli(capsys, "reproduce", "--figure", "6")
        assert code == 0
        lines = out.splitlines()
        header_i = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_i] == "P_in_W,P_stored_W,flag"
        first = lines[header_i + 1].split(",")
        last = lines[-1].split(",")
        slope = (float(last[1]) - float(first[1])) / (float(last[0]) - float(first[0]))
        assert slope == pytest.approx(0.2849, rel=1e-9)

    def test_reproduce_to_file_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "fig11.json"
        code, _ = run_cli(
            capsys, "reproduce", "--figure", "11", "--out", str(out_file), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert "P_pv_W" in doc["columns"]
        assert doc["provenance"]["a1"] == "0.3487"

    def test_sweep_command(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--var", "d", "--from", "0.5m", "--to", "5m", "--points", "10"
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0].startswith("d_m,")
        assert len(rows) == 11

    def test_sweep_settings_are_flags_not_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 2m\nsweep_var = P_beam\n")
        code, out = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        rec = json.loads(out)
        assert (rec["error"], rec["line"]) == ("ParseError", 2)
        code, out = run_cli(capsys, "sweep", "--var", "P_beam", "--from", "0", "--to", "30W",
                            "--points", "7")
        assert code == 0
        rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert rows[0].startswith("P_beam_W,")
        assert len(rows) == 8

    def test_cli_byte_determinism(self, capsys):
        _, a = run_cli(capsys, "reproduce", "--figure", "9")
        _, b = run_cli(capsys, "reproduce", "--figure", "9")
        assert a == b


class TestConfigIntegration:
    def test_config_file_plus_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r1 = -900mm\nd = 2m\n")
        code, out = run_cli(capsys, "stability", "--config", str(cfg), "--d", "1m")
        rec = json.loads(out)
        assert code == 0
        assert rec["params"]["r1"] == "-0.9"
        assert rec["params"]["d"] == "1.0"  # flag wins over file

    def test_bad_config_is_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta_stored = 1.5\n")
        code, out = run_cli(capsys, "stability", "--config", str(cfg))
        assert code == 1
        rec = json.loads(out)
        assert rec["error"] == "UnitError"
        assert (rec["key"], rec["line"], rec["value"]) == ("eta_stored", 1, "1.5")


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out = run_cli(capsys, "max-distance", "--f", "flat", "--r1", "flat", "--r2", "flat")
        assert code == 1
        rec = json.loads(out)
        assert rec["error"] == "NoStableRegionError"
        assert rec["message"]

    def test_usage_error_is_two(self, capsys):
        assert main(["bogus"]) == 2
        assert main(["sweep", "--var", "bogus"]) == 2  # invalid choice
        assert main(["power"]) == 2  # missing required --pin
        # no flag is taken for a longer one it begins
        assert main(["power", "--pi", "100W"]) == 2
        assert main(["sweep", "--form", "json"]) == 2
        assert main(["design", "required-pin", "--po", "1W"]) == 2
        assert main([]) == 2

    def test_unknown_figure_is_domain_error(self, capsys):
        code, out = run_cli(capsys, "reproduce", "--figure", "4")
        assert code == 1
        assert json.loads(out)["error"] == "UnknownFigureError"

    def test_invalid_value_is_domain_error(self, capsys):
        code, out = run_cli(capsys, "intervals", "--d-limit", "0")
        assert code == 1
        rec = json.loads(out)
        assert (rec["error"], rec["key"], rec["value"]) == ("UnitError", "d_limit", "0.0")

    def test_subprocess_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "resbeam.cli", "thresholds", "--d", "1m"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "thresholds"


# the commands that never touch an array, each run once with its defaults
SCALAR_COMMANDS = {
    "stability": ["stability"],
    "intervals": ["intervals"],
    "max-distance": ["max-distance"],
    "connect-r2": ["connect-r2", "--branch", "origin"],
    "power": ["power", "--pin", "100W"],
    "thresholds": ["thresholds"],
    "required-pin": ["design", "required-pin", "--pout", "1W"],
    "calibrate": ["calibrate", "--pstored", "30W", "--eta", "0.61"],
    "r1-range": ["design", "r1-range", "--target-d", "5m"],
}
START_UPS = {"import-resbeam": "import resbeam", "import-resbeam.cli": "import resbeam.cli"} | {
    name: f"import resbeam.cli; assert resbeam.cli.main({argv!r}) == 0"
    for name, argv in SCALAR_COMMANDS.items()}


HEAVY = "import sys; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"


@pytest.mark.parametrize("code", START_UPS.values(), ids=START_UPS.keys())
def test_scalar_path_loads_neither_numpy_nor_scipy(code):
    # importing numpy is most of a CLI process's start-up; scipy is a test-only dependency
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; {HEAVY}"], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the public names of the package when every module was imported eagerly
PACKAGE_EXPORTS = """
    BRANCHES BeamRadii CavityDerived CavityGeometry ConfigError Dataset DegenerateLineError
    DistanceIntervals EfficiencyBreakdown EmptyResultError FLAT GainParams InfeasibleTargetError
    MaxDistance NoSolutionError NoStableRegionError ORIGIN ParseError PowerState PvParams
    ResbeamError RunConfig SWEEP_VARIABLES StabilityLine SweepSpec SystemParams TANGENT Thresholds
    UnboundedStableRangeError UndefinedAtZeroError UnitError UnknownFigureError
    UnreachableTargetError UnstableConfigurationError WrongSignSlopeError associated_laguerre
    beam_power beam_radii calibrate_aperture cavity config connecting_r2 dataset
    diffraction effective_length emit_dataset end_to_end errors explorer
    fundamental_loss_vs_distance g_parameters gain_to_beam_coefficient is_stable load_config
    max_distance_vs_r1 max_transmission_distance mode_diffraction_loss parse_config powerchain
    pv_efficiency pv_output r1_range_for_distance reference_defaults render_config
    reproduce_figure required_input_power stability_line stable_distance_intervals stored_power
    sweep thresholds transmission_efficiency
""".split()


def test_package_exports_resolve_after_a_bare_import():
    probe = f"""
import resbeam
listed = dir(resbeam)
star = {{}}
exec("from resbeam import *", star)
print([n for n in {PACKAGE_EXPORTS!r} if n not in listed or n not in star])
from resbeam import Dataset, emit_dataset, sweep
assert sweep is resbeam.explorer.sweep and emit_dataset is resbeam.dataset.emit_dataset
assert not hasattr(resbeam, "no_such_name")
"""
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, key, want", [
    (["stability", "--r1", "-1000mm"], "r1", "-1.0"),
    (["stability", "--f", "-880mm", "--d", "0.5m"], "f", "-0.88"),
    (["stability", "--r2", "-5.2m"], "r2", "-5.2"),
    (["connect-r2", "--branch", "tangent", "--r1", "-.9m"], "r1", "-0.9"),
])
def test_negative_value_reaches_the_option(capsys, argv, key, want):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["params"][key] == want


def test_negative_search_interval_and_sweep_range(capsys):
    code, out = run_cli(
        capsys, "design", "r1-range", "--target-d", "5m",
        "--search-from", "-1.5m", "--search-to", "-0.5m",
    )
    assert code == 0
    assert json.loads(out)["intervals"][0][1] == pytest.approx(-0.82, abs=2e-3)
    code, out = run_cli(capsys, "sweep", "--var", "R1", "--from", "-1.5m", "--to", "-.5m",
                        "--points", "3")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert [float(r.split(",")[0]) for r in rows] == [-1.5, -1.0, -0.5]


@pytest.mark.parametrize("argv, key", [
    (["stability", "--d", "1e999"], "d"),
    (["power", "--pin", "1e999W"], "pin"),
])
def test_overflowing_quantity_is_domain_error(capsys, argv, key):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    rec = json.loads(out)
    assert rec["error"] == "UnitError"
    assert rec["message"].startswith(f"{key}: ")
    assert rec["key"] == key


@pytest.mark.parametrize("argv, key", [
    (["intervals", "--d-limit", "5W"], "d_limit"),
    (["design", "r1-range", "--target-d", "5W"], "target_d"),
    (["design", "r1-range", "--target-d", "5m", "--search-from", "3W"], "search_from"),
    (["design", "r1-range", "--target-d", "5m", "--search-to", "-1W"], "search_to"),
    (["power", "--pin", "1W", "--d", "5W"], "d"),
])
def test_wrong_unit_names_the_flag(capsys, argv, key):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    rec = json.loads(out)
    assert rec["error"] == "UnitError"
    assert rec["message"] == f"{key}: expected a length, got watts"
    assert rec["key"] == key


@pytest.mark.parametrize("argv, key, value", [
    (["power", "--pin", "-1W"], "p_in", "-1.0"),
    (["intervals", "--d-limit", "-5m"], "d_limit", "-5.0"),
    (["calibrate", "--pstored", "0W", "--eta", "0.5"], "p_stored", "0.0"),
    (["design", "required-pin", "--pout", "-1W"], "target_p_out", "-1.0"),
    (["design", "r1-range", "--target-d", "5m", "--search-from", "-0.5m", "--search-to", "-1.5m"],
     "search_from", "-0.5"),
    (["sweep", "--from", "5m", "--to", "1m"], "sweep_from", "5.0"),
    (["sweep", "--points", "0"], "sweep_points", "0"),
    # sweep bounds take the unit of the swept variable
    (["sweep", "--var", "d", "--from", "1W", "--to", "5W"], "sweep_from", "1W"),
    (["sweep", "--var", "R1", "--from", "-1.5m", "--to", "-0.5W"], "sweep_to", "-0.5W"),
    (["sweep", "--var", "P_in", "--from", "1m", "--to", "5m"], "sweep_from", "1m"),
    (["sweep", "--var", "P_beam", "--from", "1W", "--to", "5mm"], "sweep_to", "5mm"),
])
def test_bad_value_record_names_key_and_value(capsys, argv, key, value):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    rec = json.loads(out)
    assert (rec["error"], rec["key"], rec["value"]) == ("UnitError", key, value)
    assert rec["message"].startswith(f"{key}: ") and "line" not in rec


@pytest.mark.parametrize("flag", ["--search-from", "--search-to"])
def test_flat_search_bound_is_a_domain_error(capsys, flag):
    code = main(["design", "r1-range", "--target-d", "5m", flag, "flat"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    rec = json.loads(captured.out)
    assert rec["error"] == "UnitError"
    assert rec["message"] == f"{flag[2:].replace('-', '_')}: 'flat' is only valid for f, r1, r2"


def _option_dests(parser):
    """The dest of every option of the parser and of all its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_dests(sub)
        elif action.option_strings:
            yield action.dest


# each command's words, and the flags of the config keys its handler never reads
COMMAND_WORDS = [argv[:2] if argv[0] == "design" else argv[:1]
                 for argv in SCALAR_COMMANDS.values()] + [["sweep"], ["reproduce"]]
UNREAD_FLAGS = [(name, flag, value) for name in SCALAR_COMMANDS
                for flag, value in (("--out", "x.json"), ("--format", "json"))] + [
    ("r1-range", "--r1", "-3m"), ("r1-range", "--r2", "flat"), ("connect-r2", "--r2", "flat")]


@pytest.mark.parametrize("argv", [
    *(words + ["--help"] for words in COMMAND_WORDS),
    *(SCALAR_COMMANDS[name] + [flag, value] for name, flag, value in UNREAD_FLAGS),
], ids=" ".join)
def test_each_command_takes_only_the_flags_it_reads(capsys, argv):
    # --help exits 0; a flag of a key the command never reads is a usage error
    assert main(argv) == (0 if argv[-1] == "--help" else 2)


def test_unit_table_names_only_keys_and_flags():
    names = {f.name for f in fields(RunConfig)} | set(_option_dests(build_parser()))
    assert set(config._UNITS) <= names | set(config.SWEEP_VARIABLES)
    assert set(config.SWEEP_VARIABLES) <= set(config._UNITS)  # each sweep bound has a unit
    # 'flat' is an infinite radius or focal length, and no other value
    flat = set()
    for name in names:
        try:
            config.parse_quantity("flat", name)
        except UnitError:
            continue
        flat.add(name)
    assert flat == {"f", "r1", "r2"}


@pytest.mark.parametrize("flags, key", [
    (["--points", "-3"], "sweep_points"),
    (["--points", "0"], "sweep_points"),
    (["--from", "5m", "--to", "1m"], "sweep_from"),
    (["--from", "2m", "--to", "2m", "--points", "1"], "sweep_from"),
])
def test_sweep_flags_are_validated_by_the_config(capsys, flags, key):
    code, out = run_cli(capsys, "sweep", "--var", "d", *flags)
    assert code == 1
    rec = json.loads(out)
    assert rec["error"] == "UnitError"
    assert rec["message"].startswith(f"{key}: ")
    assert rec["key"] == key


def test_unstable_distance_has_no_beam(capsys):
    # d = 11 m is past the reference d_max of 10.43 m
    code, out = run_cli(capsys, "power", "--pin", "300W", "--d", "11m")
    rec = json.loads(out)
    assert code == 0 and rec["stable"] is False
    assert rec["p_stored"] > 0
    assert [rec[k] for k in ("p_beam", "p_out", "eta_trans", "eta_pv", "eta_all")] == [0.0] * 5
    code, out = run_cli(capsys, "thresholds", "--d", "11m")
    assert code == 1
    assert json.loads(out)["error"] == "UnreachableTargetError"
