import argparse
import ast
import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import resbeam
from resbeam import (BeamRadii, CavityDerived, EfficiencyBreakdown, MaxDistance, PowerState,
                     RunConfig, StabilityLine, Thresholds, UnitError, cli, config)
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

    def test_tangent_touch_point_keeps_its_stable_set(self, capsys):
        # a tangent design whose touch point's discriminant rounds negative: the gap between
        # the roots of g1 = 0 and g2 = 0 has g1*g2 = 1 at its midpoint, to rounding, but is
        # stable on (0.122, 0.403) m in exact arithmetic; all three commands say so
        design = ("--l", "0.15579429746852422m", "--f", "0.09779609198763684m",
                  "--r1=-0.3372565495547999m", "--r2", "0.14070571376477478m")
        code, out = run_cli(capsys, "stability", *design, "--d", "0.3m")
        assert code == 0 and json.loads(out)["stable"] is True
        code, out = run_cli(capsys, "max-distance", *design)
        assert code == 0 and json.loads(out)["d_max"] == pytest.approx(0.403, abs=5e-4)
        code, out = run_cli(capsys, "intervals", *design, "--d-limit", "1m")
        (lo, hi), = json.loads(out)["intervals"]
        assert code == 0 and (lo, hi) == pytest.approx((0.122, 0.403), abs=5e-4)

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

    def test_overflowing_beam_is_flagged_not_an_error(self, capsys, tmp_path):
        # a huge mode overlap overflows the beam power: those rows read zero, flagged
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m_overlap = 1e308\n")
        code = main(["reproduce", "--figure", "13", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 200 and "overflow" in {row[-1] for row in rows}

    @pytest.mark.parametrize("argv", [
        ["power", "--pin", "10W"], ["thresholds"], ["reproduce", "--figure", "13"],
        ["sweep", "--var", "d", "--points", "300"],
    ], ids=["power", "thresholds", "figure-13", "sweep-d-300"])
    def test_huge_aperture_has_no_loss(self, capsys, tmp_path, argv):
        # the squared radius overflows to inf, so the loss reads 0 and nothing raises
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1e200m\n")
        code = main([*argv, "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("argv", [
        ["power", "--pin", "10W"], ["thresholds"], ["sweep", "--var", "d", "--points", "20"],
        ["sweep", "--var", "d", "--points", "300"],
    ], ids=["power", "thresholds", "sweep-d-20", "sweep-d-300"])
    def test_subnormal_wavelength_is_named_on_both_paths(self, capsys, tmp_path, argv):
        # wavelength * (l + d) would underflow to 0, the divisor of the TEM00 loss exponent
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength = 5e-324m\nd = 0.1m\n")
        code = main([*argv, "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        rec = json.loads(out)
        assert (rec["error"], rec["key"], rec["line"], rec["stage"]) == (
            "UnitError", "wavelength", 1, "build")

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


def run_module(*argv):
    """resbeam in a process of its own, through the __main__ block of resbeam.cli."""
    return subprocess.run([sys.executable, "-m", "resbeam.cli", *argv], capture_output=True,
                          timeout=120)


class TestProcessExit:
    # entrypoint freezes the heap of the process it ends, so it runs only in a child here:
    # called in this process, it would freeze the test runner's heap

    @pytest.mark.parametrize("argv, code", [
        (["power", "--pin", "100W"], 0),
        (["intervals", "--d-limit", "0"], 1),
        (["power", "--pi", "100W"], 2),
    ], ids=["success", "domain-error", "usage-error"])
    def test_exit_code_and_stdout_are_those_of_main(self, capsys, argv, code):
        proc = run_module(*argv)
        assert (proc.returncode, main(argv)) == (code, code)
        here = capsys.readouterr()
        assert (proc.stdout, proc.stderr) == (here.out.encode(), here.err.encode())

    def test_piped_dataset_is_byte_equal_to_main(self, capsys):
        argv = ["sweep", "--points", "200", "--format", "json"]
        proc = run_module(*argv)
        assert (proc.returncode, main(argv)) == (0, 0)
        assert proc.stdout == capsys.readouterr().out.encode()
        assert len(json.loads(proc.stdout)["columns"]["d_m"]) == 200

    def test_out_file_is_byte_equal_to_main(self, tmp_path):
        argv = ["reproduce", "--figure", "7", "--format", "csv", "--out"]
        proc = run_module(*argv, str(tmp_path / "child.csv"))
        assert (proc.returncode, proc.stdout) == (0, b"")
        assert main([*argv, str(tmp_path / "here.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()

    @pytest.mark.parametrize("argv", [["power", "--pin", "100W"], ["reproduce", "--figure", "7"]],
                             ids=["point", "dataset"])
    def test_main_leaves_the_heap_unfrozen(self, capsys, argv):
        before = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() == before

    def test_entrypoint_freezes_the_heap_before_it_exits(self):
        probe = ("import gc, sys, resbeam.cli\n"
                 "sys.argv = ['resbeam', 'power', '--pin', '100W']\n"
                 "try:\n    resbeam.cli.entrypoint()\n"
                 "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0)\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=120)
        record, exit_line = proc.stdout.splitlines()
        assert json.loads(record)["command"] == "power"
        assert exit_line == "0 True"

    def test_both_start_paths_take_entrypoint(self):
        # the console script and `python -m resbeam.cli` end through the one function that
        # freezes the heap, so a renamed script cannot silently lose the shutdown skip
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            module, _, func = tomllib.load(fh)["project"]["scripts"]["resbeam"].partition(":")
        assert (module, func) == ("resbeam.cli", "entrypoint")
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        main_blocks = [node.body for node in tree.body if isinstance(node, ast.If)
                       and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [[ast.unparse(stmt) for stmt in body] for body in main_blocks] == [[f"{func}()"]]


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
# the dataset commands: a figure has 200 points, and so has a default sweep; each sweep
# also runs on 1000 points, since no grid length may make the CLI import numpy
DATASET_COMMANDS = {
    f"sweep-{var}{tag}": ["sweep", "--var", var, "--from", lo, "--to", hi, *points]
    for var, lo, hi in (("d", "0.1m", "10m"), ("P_in", "0W", "150W"), ("P_stored", "0W", "50W"),
                        ("P_beam", "0W", "30W"), ("R1", "-1.5m", "-0.5m"))
    for tag, points in (("", []), ("-1000", ["--points", "1000"]))
} | {f"reproduce-{fid}-{fmt}": ["reproduce", "--figure", str(fid), "--format", fmt]
     for fid in range(6, 14) for fmt in ("csv", "json")}
LONG_COMMANDS = {name: argv for name, argv in DATASET_COMMANDS.items() if name.endswith("-1000")}
# the library's grid drivers on 1000-point grids, as expressions on the package
LONG_GRIDS = {
    "sweep-library-1000": "resbeam.sweep(resbeam.SweepSpec('R1', resbeam.explorer.linspace("
                          "-1.5, -0.5, 1000), resbeam.reference_defaults()))",
    "max-distance-vs-r1-1000": "resbeam.max_distance_vs_r1(0.06, 0.88, "
                               "resbeam.explorer.linspace(-1.5, -0.5, 1000), 'tangent')",
}
START_UPS = {"import-resbeam": "import resbeam", "import-resbeam.cli": "import resbeam.cli",
             "star-import": "from resbeam import *",
             "mode-loss": "import resbeam; resbeam.mode_diffraction_loss(2, 3, 1e-3, 1e-3)"} | {
    name: f"import resbeam.cli; assert resbeam.cli.main({argv!r}) == 0"
    for name, argv in (SCALAR_COMMANDS | DATASET_COMMANDS).items()} | {
    name: f"import resbeam; {code}" for name, code in LONG_GRIDS.items()}


HEAVY = "import sys; print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
INTROSPECTION = "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"


@pytest.mark.parametrize("code", START_UPS.values(), ids=START_UPS.keys())
def test_scalar_path_loads_neither_numpy_nor_scipy(code):
    # importing numpy is most of a CLI process's start-up; scipy is a test-only dependency.
    # A grid of any length runs as rows where numpy is not loaded, so no command here needs
    # numpy, and the mode-loss quadrature nodes are plain floats.
    # Nor does any start-up load dataclasses or inspect (with ast, dis and tokenize, about
    # 10 ms): the bundles are errors.Record, which needs neither.
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; {HEAVY}; {INTROSPECTION}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_long_grids_without_numpy_give_the_column_bytes(tmp_path):
    # one process without numpy runs every 1000-point grid, as rows; this one, with numpy
    # loaded, runs them as columns, and the CSV bytes are the same
    import numpy  # noqa: F401

    probe = "\n".join([
        "import sys, resbeam.cli",
        *(f"assert resbeam.cli.main({[*argv, '--out', str(tmp_path / name)]!r}) == 0"
          for name, argv in LONG_COMMANDS.items()),
        *(f"open({str(tmp_path / name)!r}, 'wb').write(resbeam.emit_dataset({code}))"
          for name, code in LONG_GRIDS.items()),
        "print('numpy' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]
    assert len(LONG_COMMANDS) == 5
    for name, argv in LONG_COMMANDS.items():
        assert main([*argv, "--out", str(tmp_path / "columns")]) == 0
        assert (tmp_path / name).read_bytes() == (tmp_path / "columns").read_bytes(), name
    for name, code in LONG_GRIDS.items():
        columns = resbeam.emit_dataset(eval(code, {"resbeam": resbeam}))
        assert (tmp_path / name).read_bytes() == columns, name


# the public names of the package when every module was imported eagerly
PACKAGE_EXPORTS = """
    BRANCHES BeamRadii CavityDerived CavityGeometry ConfigError Dataset DegenerateLineError
    DistanceIntervals EfficiencyBreakdown EmptyResultError FLAT GainParams InfeasibleTargetError
    MaxDistance NoSolutionError NoStableRegionError ORIGIN ParseError PowerState PvParams
    ResbeamError RunConfig SWEEP_VARIABLES StabilityLine SweepSpec SystemParams TANGENT Thresholds
    UndefinedAtZeroError UnitError UnknownFigureError
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


def test_r1_range_window_past_9e307(capsys):
    # the one gap's midpoint, taken as 0.5 * (a + b), would overflow to -inf
    code, out = run_cli(capsys, "design", "r1-range", "--target-d", "1m",
                        "--search-from=-1.7e308m", "--search-to=-1e308m")
    assert code == 0
    assert json.loads(out)["intervals"] == [[-1.7e308, -1e308]]


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
    # only R1 takes a negative bound; a bad bound is named, not the grid built from it
    (["sweep", "--var", "d", "--from", "-1m", "--to", "5m"], "sweep_from", "-1.0"),
    (["sweep", "--var", "P_in", "--from", "-5W", "--to", "-1W"], "sweep_from", "-5.0"),
    (["sweep", "--var", "P_stored", "--from", "5W", "--to", "-1W"], "sweep_to", "-1.0"),
    (["sweep", "--var", "P_beam", "--from", "-0.5W", "--to", "5W"], "sweep_from", "-0.5"),
    # a subnormal R1 whose connecting r2 would be 0 names the R1
    (["connect-r2", "--branch", "origin", "--r1", "1e-320m"], "r1", "1e-320"),
    # and so does one whose c0*(phi + c0/r1) underflows to 0
    (["connect-r2", "--branch", "origin", "--l", "1e308m", "--f", "1.0000000000000004e308m",
      "--r1=-5.551115123125724e292m"], "r1", "-5.551115123125724e+292"),
    # a target distance below zero
    (["design", "r1-range", "--target-d=-5m"], "target_d", "-5.0"),
])
def test_bad_value_record_names_key_and_value(capsys, argv, key, value):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    rec = json.loads(out)
    assert (rec["error"], rec["key"], rec["value"]) == ("UnitError", key, value)
    assert rec["message"].startswith(f"{key}: ") and "line" not in rec
    # a token of the wrong unit fails while it is parsed, and the record's value is that
    # token; every other case here is a handler's range check on a parsed number
    assert rec["stage"] == ("parse" if value[-1] in "mW" else "evaluate")


def test_a_subnormal_l_is_named_not_the_wavelength(capsys):
    # wavelength * l underflows to 0 with the reference wavelength: l, the smaller factor, is
    # named, in the one wording of the rule
    code, out = run_cli(capsys, "stability", "--l", "1e-320m")
    rec = json.loads(out)
    assert code == 1 and (rec["error"], rec["key"], rec["value"], rec["stage"]) == (
        "UnitError", "l", "1e-320", "build")
    assert rec["message"] == "l: must be such that wavelength * l > 0, got 1e-320"


@pytest.mark.parametrize("argv, error, stage", [
    (["stability", "--d", "5W"], "UnitError", "parse"),
    (["stability", "--config", "{tmp}/syntax.cfg"], "ParseError", "parse"),
    (["stability", "--config", "{tmp}/missing.cfg"], "IoError", "parse"),
    (["stability", "--d", "-1m"], "UnitError", "build"),
    (["stability", "--config", "{tmp}/range.cfg"], "UnitError", "build"),
    (["max-distance", "--r1", "flat", "--r2", "flat", "--f", "flat"], "NoStableRegionError",
     "evaluate"),
    (["power", "--pin", "-1W"], "UnitError", "evaluate"),
    (["power", "--pin", "5m"], "UnitError", "parse"),
    (["stability", "--d", "nan"], "UnitError", "parse"),
    (["power", "--pin", "1_000W"], "UnitError", "parse"),
    (["stability", "--d", "1e300m"], "UnitError", "serialise"),
    (["reproduce", "--figure", "6", "--out", "{tmp}/missing/x.csv"], "IoError", "serialise"),
    # a subnormal mode overlap makes f(d) read 0.0, so no input power reaches the target
    (["design", "required-pin", "--pout", "1W", "--config", "{tmp}/faint.cfg"],
     "UnreachableTargetError", "evaluate"),
    # b1 = 1 W gives 1 W out at zero input, and no drive gives less
    (["design", "required-pin", "--pout", "0.5W", "--config", "{tmp}/offset.cfg"],
     "UnreachableTargetError", "evaluate"),
    # a faint mode overlap leaves f(d) > 0, but the input power for 1 W, and the input
    # threshold, overflow; at 5e-324 the input threshold divides by f(d) = 0.0
    (["design", "required-pin", "--pout", "1W", "--config", "{tmp}/dim.cfg"],
     "UnreachableTargetError", "evaluate"),
    (["thresholds", "--config", "{tmp}/dim.cfg"], "UnreachableTargetError", "evaluate"),
    (["thresholds", "--config", "{tmp}/faint.cfg"], "UnreachableTargetError", "evaluate"),
    # the quotient overflows at the reference link
    (["design", "required-pin", "--pout", "1e308W"], "UnreachableTargetError", "evaluate"),
    # a huge mode overlap and a tiny output reflectivity make f(d) itself overflow
    (["design", "required-pin", "--pout", "1W", "--config", "{tmp}/huge.cfg"],
     "UnreachableTargetError", "evaluate"),
    (["thresholds", "--config", "{tmp}/huge.cfg"], "UnreachableTargetError", "evaluate"),
], ids=["quantity", "config-syntax", "config-file", "flag-range", "config-range", "handler",
        "handler-range", "handler-quantity", "quantity-nan", "quantity-digits", "record",
        "out-file", "zero-slope", "below-zero-input", "overflowed-pin", "overflowed-threshold",
        "zero-slope-threshold", "overflowed-target", "overflowed-slope",
        "overflowed-slope-threshold"])
def test_error_record_names_its_stage(capsys, tmp_path, argv, error, stage):
    (tmp_path / "syntax.cfg").write_text("d 1m\n")
    (tmp_path / "range.cfg").write_text("eta_stored = 1.5\n")
    (tmp_path / "faint.cfg").write_text("m_overlap = 5e-324\n")
    (tmp_path / "dim.cfg").write_text("m_overlap = 1e-310\n")
    (tmp_path / "offset.cfg").write_text("b1 = 1W\n")
    (tmp_path / "huge.cfg").write_text("m_overlap = 1.7e308\nr_out = 1e-300\n")
    code, out = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    rec = json.loads(out)
    assert (code, rec["error"], rec["stage"]) == (1, error, stage)


def test_a_reach_past_the_float_range_names_d_max(capsys):
    # the stable set runs out to about 6e314 m, so d_max reads inf, which no record holds
    code, out = run_cli(capsys, "max-distance", "--l", "1e300m", "--f", "-1e300m",
                        "--r1", "1.9999999999999983e300m", "--r2", "flat")
    rec = json.loads(out)
    assert (code, rec["error"], rec["key"], rec["stage"]) == (1, "UnitError", "d_max", "serialise")


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


@pytest.mark.parametrize("argv", [
    *(words + ["--help"] for words in COMMAND_WORDS),
    ["power", "--pi", "100W"], ["design", "required-pin", "--po", "1W"], ["sweep", "--var", "x"],
    ["stability", "--d", "1m", "stray"],
], ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, argv):
    # main builds only the named command's parser; its help and usage errors are the full one's
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(cli._normalize_argv(argv))
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (exc.value.code, want.out, want.err)


def test_unit_table_names_only_keys_and_flags():
    names = set(RunConfig._fields) | set(_option_dests(build_parser()))
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


# the fields of each point record at the reference link, beside "command" and "params"
RECORD_KEYS = {
    "stability": "L g1 g2 g1g2 stable radii",
    "intervals": "d_limit intervals",
    "max-distance": "d_max contiguous",
    "connect-r2": "branch r2 slope intercept",
    "power": "stable p_in p_stored p_beam p_out eta_stored eta_trans eta_pv eta_all",
    "thresholds": "d p_stored_th p_beam_th p_in_th",
    "required-pin": "p_out_target p_in_required",
    "calibrate": "aperture_radius eta_trans_target p_stored d",
    "r1-range": "branch target_d intervals",
}
RESULT_FIELDS = {
    CavityDerived: "L g1 g2 u1 u2 x",
    StabilityLine: "slope intercept",
    BeamRadii: "w_gain w_m1 w_m2",
    MaxDistance: "d_max contiguous",
    PowerState: "p_in p_stored p_beam p_out",
    EfficiencyBreakdown: "eta_stored eta_trans eta_pv eta_all",
    Thresholds: "p_stored p_beam p_in",
}


def test_point_records_hold_exactly_the_result_fields(capsys):
    # records are built from the results' own fields, so a renamed field would rename a key
    for cls, names in RESULT_FIELDS.items():
        assert issubclass(cls, tuple) and cls._fields == tuple(names.split()), cls
    for name, argv in SCALAR_COMMANDS.items():
        code, out = run_cli(capsys, *argv)
        rec = json.loads(out)
        assert code == 0, name
        assert set(rec) == {"command", "params", *RECORD_KEYS[name].split()}, name
    assert list(json.loads(run_cli(capsys, "stability")[1])["radii"]) == list(BeamRadii._fields)


@pytest.mark.parametrize("argv, key, value", [
    (["stability", "--r1", "1e-320m"], "g1", "-inf"),
    (["stability", "--d", "1e300m"], "g1g2", "inf"),
    # f = 1e-310 m: the effective length l + d - l*d/f overflows
    (["stability", "--f", "1e-310m"], "L", "-inf"),
    # a PV offset that gives output at no beam, over a subnormal drive
    (["power", "--pin", "2e-313W", "--config", "{cfg}"], "eta_all", "inf"),
])
def test_overflowed_record_field_is_named(capsys, tmp_path, argv, key, value):
    cfg = tmp_path / "pv.cfg"
    cfg.write_text("c = 0W\nb1 = 1W\n", encoding="utf-8")
    code, out = run_cli(capsys, *(str(cfg) if a == "{cfg}" else a for a in argv))
    assert code == 1
    rec = json.loads(out)
    assert (rec["error"], rec["key"], rec["value"]) == ("UnitError", key, value)
    assert rec["message"] == f"{key}: must be finite, got {value}"


def test_nested_record_numbers_are_checked():
    # a number inside radii or intervals is named by its top-level field
    with pytest.raises(UnitError) as exc:
        cli._check_finite({"radii": {"w_gain": math.inf}, "intervals": [[0.0, math.nan]], "d": 1.0})
    assert (exc.value.key, exc.value.value) == ("intervals", "nan")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
POOL = json.loads((PERFBENCH / "reference" / "cli_pool.json").read_text())["entries"]
DATASET_POOL = {f"{i}-{e['type']}": e for i, e in enumerate(POOL) if e["kind"] == "dataset"}


@pytest.mark.parametrize("entry", DATASET_POOL.values(), ids=DATASET_POOL.keys())
def test_benchmark_dataset_entries_pass_in_process(entry, capsys, tmp_path, monkeypatch):
    # the benchmark's own check of each recorded sweep and figure run; perfbench is only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    cfg, out = tmp_path / "run.cfg", tmp_path / f"out.{entry['format']}"
    if entry["config"] is not None:
        cfg.write_text(entry["config"], encoding="utf-8")
    argv = [a.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for a in entry["argv"]]
    code, stdout = run_cli(capsys, *argv)
    written = out.read_bytes() if "{out}" in entry["argv"] else None
    assert workloads.check_cli(entry, (code, stdout.encode(), written))
