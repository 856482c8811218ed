"""The examples of README.md run as written."""

import importlib
import pkgutil
import re
import shlex
from functools import reduce
from pathlib import Path

import pytest

import resbeam
from resbeam import SweepSpec, parse_config, reference_defaults, reproduce_figure, sweep
from resbeam.explorer import FIGURE_IDS
from resbeam.cli import main

REF = reference_defaults()
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# (info string, body) of every fenced code block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


# the Flag column of the flag table in "Output format"
FLAG_TABLE = README.split("| Dataset | Flag | Row |", 1)[1].split("\n\n", 1)[0]
FLAG_CELLS = re.findall(r"^\|[^|\n]*\|([^|\n]*)\|", FLAG_TABLE, flags=re.M)

# every backticked dotted name, as `cavity._design`, `explorer._column_kit()` or
# `resbeam.errors.Record`, without its resbeam. prefix
DOTTED = [name.removeprefix("resbeam.") for name in re.findall(r"`([\w.]+?)(?:\(\))?`", README)]


def block(info: str, marker: str) -> str:
    """The one block of the given info string whose body contains the marker."""
    (body,) = [body for kind, body in BLOCKS if kind == info and marker in body]
    return body


def test_quickstart_runs():
    exec(block("python", "import resbeam as rb"), {})


def test_every_command_line_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    lines = [ln for ln in block("bash", "resbeam stability").splitlines() if ln.strip()]
    assert len(lines) == 11
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "resbeam"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().out)


def test_configuration_file_parses():
    cfg = parse_config(block("", "eta_stored = "))
    assert cfg.a == pytest.approx(7.855301511e-4, rel=1e-15)


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    try:
        reduce(getattr, attrs, importlib.import_module(f"resbeam.{module}"))
    except AttributeError:
        return False
    return True


def test_every_named_module_attribute_resolves():
    # a rename cannot leave a stale name in the prose
    modules = {info.name for info in pkgutil.iter_modules(resbeam.__path__)}
    names = [name for name in DOTTED if name.split(".")[0] in modules]
    assert {"cavity._pieces", "explorer._column_kit", "errors.Record"} <= set(names)
    assert [name for name in names if not resolves(name)] == []


def test_flag_table_names_every_token_the_rules_emit():
    # a plain token of the table is one the rules emit, as a row's whole flag or as
    # the base of a joined tag:token, and the other way round
    from test_explorer import DATASET_CASES, R2_3

    datasets = [build() for build, _ in DATASET_CASES.values()]
    datasets += [reproduce_figure(fid, p) for fid in FIGURE_IDS for p in (REF, R2_3)]
    datasets.append(sweep(SweepSpec("R1", (1e-320,), REF)))  # g1 = -inf: overflow
    emitted = {token.rpartition(":")[2]
               for ds in datasets for flag in ds.flags for token in flag.split(";")} - {""}
    documented = {token for cell in FLAG_CELLS for token in re.findall(r"`([a-z0-9-]+)`", cell)}
    assert emitted == documented == {
        "unstable", "below-threshold", "undefined-at-zero", "invalid-r1", "no-stable-region",
        "no-solution", "overflow"}
