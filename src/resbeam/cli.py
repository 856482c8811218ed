"""Command-line interface.

Point evaluations print one JSON record to stdout; sweep-style commands emit
CSV or JSON datasets to --out (or stdout).  Exit codes: 0 success, 1 domain
error (printed as a machine-readable JSON error record), 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from .config import (SWEEP_VARIABLES, RunConfig, SystemParams, load_config, override,
                     parse_quantity, provenance_for)
from .errors import ResbeamError, require
from .geometry import BRANCHES, _g_at, beam_radii, is_stable, stability_line

# The reach (cavity), the power chain (powerchain, which loads diffraction),
# explorer and dataset are imported inside the handlers that call them, so a
# command compiles only the modules it runs; no command loads numpy, since a
# grid runs as rows wherever numpy is not loaded already


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join "--opt -1000mm" into "--opt=-1000mm" so argparse reads it as a value.

    Every long option takes a value, and argparse would otherwise reject a
    single-dash token after one as an unknown short option.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (tok[:1] == "-" and tok[:2] != "--" and prev.startswith("--")
                and "=" not in prev and prev not in ("--", "--help")):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


_GEOMETRY = ("l", "f", "r1", "r2")
_AT_D = (*_GEOMETRY, "d")


def _load(args) -> RunConfig:
    """The config file (or the defaults) with the command-line flags laid over it."""
    cfg = load_config(args.config) if args.config else RunConfig()
    return override(cfg, **{name: parse_quantity(raw, name) for name in RunConfig._fields
                            if (raw := getattr(args, name, None)) is not None})


def _numbers(value) -> list:
    """The floats in a record value, those of nested dicts and lists included."""
    if isinstance(value, (dict, list)):
        return [x for v in (value.values() if isinstance(value, dict) else value)
                for x in _numbers(v)]
    return [value] if isinstance(value, float) else []


def _check_finite(record: dict) -> None:
    """Raise UnitError naming the first field, in sorted order, that holds a non-finite number."""
    for key in sorted(record):
        for value in _numbers(record[key]):
            require(key, value, math.isfinite(value), "finite")


def _print_record(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _write_dataset(ds, args) -> None:
    from .dataset import emit_dataset

    data = emit_dataset(ds, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


# A handler takes (args, bundle) and returns the fields of its JSON record, or
# its Dataset.
def _cmd_stability(args, params: SystemParams) -> dict:
    geom, d = params.geometry, params.d
    L, g1, g2 = _g_at(geom, d)  # the record's fields only: serialise names one that overflows
    stable = is_stable(geom, d)
    radii = beam_radii(geom, d, params.wavelength)._asdict() if stable else None
    return {"L": L, "g1": g1, "g2": g2, "g1g2": g1 * g2, "stable": stable, "radii": radii}


def _cmd_intervals(args, params: SystemParams) -> dict:
    from .cavity import stable_distance_intervals

    d_limit = parse_quantity(args.d_limit, "d_limit")
    ivals = stable_distance_intervals(params.geometry, d_limit)
    return {
        "d_limit": d_limit,
        "intervals": [[lo, hi] for lo, hi in ivals],
    }


def _cmd_max_distance(args, params: SystemParams) -> dict:
    from .cavity import max_transmission_distance

    return max_transmission_distance(params.geometry)._asdict()


def _cmd_connect_r2(args, params: SystemParams) -> dict:
    from .cavity import connecting_r2

    geom = params.geometry
    r2 = connecting_r2(geom.l, geom.f, geom.r1, args.branch)
    line = stability_line(geom._replace(r2=r2))
    return {"branch": args.branch, "r2": r2, **line._asdict()}


def _cmd_power(args, params: SystemParams) -> dict:
    from .powerchain import end_to_end

    p_in = parse_quantity(args.pin, "pin")
    state, eff = end_to_end(p_in, params.d, params)
    # the record keys are the field names of the power ladder and its efficiencies
    return {"stable": is_stable(params.geometry, params.d), **state._asdict(), **eff._asdict()}


def _cmd_thresholds(args, params: SystemParams) -> dict:
    from .powerchain import thresholds

    th = thresholds(params.d, params)
    return {"d": params.d, **{f"{stage}_th": value for stage, value in th._asdict().items()}}


def _cmd_sweep(args, params: SystemParams):
    from .explorer import SweepSpec, linspace, sweep

    var, n = args.sweep_var, args.sweep_points
    lo = parse_quantity(args.sweep_from, "sweep_from", var)
    hi = parse_quantity(args.sweep_to, "sweep_to", var)
    for key, bound in (("sweep_from", lo), ("sweep_to", hi)):  # only R1 may be negative
        require(key, bound, var == "R1" or bound >= 0, "finite and >= 0")
    require("sweep_from", lo, lo < hi, f"< sweep_to = {hi!r}")
    require("sweep_points", n, n >= 1, ">= 1")
    return sweep(SweepSpec(var, tuple(linspace(lo, hi, n)), params))


def _cmd_required_pin(args, params: SystemParams) -> dict:
    from .powerchain import required_input_power

    target = parse_quantity(args.pout, "pout")
    pin = required_input_power(target, params.d, params)
    return {
        "p_out_target": target,
        "p_in_required": pin,
    }


def _cmd_r1_range(args, params: SystemParams) -> dict:
    from .cavity import r1_range_for_distance

    target = parse_quantity(args.target_d, "target_d")
    lo = parse_quantity(args.search_from, "search_from")
    hi = parse_quantity(args.search_to, "search_to")
    ivals = r1_range_for_distance(target, params.l, params.geometry.f, args.branch, (lo, hi))
    return {
        "branch": args.branch,
        "target_d": target,
        "intervals": [[a, b] for a, b in ivals],
    }


def _cmd_calibrate(args, params: SystemParams) -> dict:
    from .powerchain import calibrate_aperture

    p_stored = parse_quantity(args.pstored, "pstored")
    eta = parse_quantity(args.eta, "eta")
    a = calibrate_aperture(params.d, p_stored, eta, params)
    return {
        "aperture_radius": a,
        "eta_trans_target": eta,
        "p_stored": p_stored,
        "d": params.d,
    }


def _cmd_reproduce(args, params: SystemParams):
    from .explorer import reproduce_figure

    return reproduce_figure(args.figure, params)


_DATASET_OPTIONS = (
    ("--out", dict(help="write the dataset to this path instead of stdout")),
    ("--format", dict(choices=("csv", "json"), default="csv", help="dataset format")),
)
# The commands, by their words after "resbeam": (help, handler, the config keys
# it reads, each a flag whose dest is the key, and its other options in order)
_COMMANDS = {
    "stability": ("point stability evaluation", _cmd_stability, _AT_D, ()),
    "intervals": ("stable transmission-distance intervals", _cmd_intervals, _GEOMETRY, (
        ("--d-limit", dict(default="20", help="search limit (default 20 m)")),)),
    "max-distance": ("supremum of the stable distance set", _cmd_max_distance, _GEOMETRY, ()),
    "connect-r2": ("receiver curvature joining the stability regions", _cmd_connect_r2,
                   ("l", "f", "r1"), (("--branch", dict(choices=BRANCHES, required=True)),)),
    "power": ("full power ladder at one operating point", _cmd_power, _AT_D, (
        ("--pin", dict(required=True, help="input electrical power (e.g. 100W)")),)),
    "thresholds": ("stored/beam/input power thresholds", _cmd_thresholds, _AT_D, ()),
    "sweep": ("sweep one variable over a grid", _cmd_sweep, _AT_D, (
        ("--var", dict(dest="sweep_var", choices=SWEEP_VARIABLES, default="d",
                       help="swept variable (default: d)")),
        ("--from", dict(dest="sweep_from", default="0.1", help="grid start (default: 0.1)")),
        ("--to", dict(dest="sweep_to", default="10", help="grid end (default: 10)")),
        ("--points", dict(dest="sweep_points", metavar="POINTS", type=int, default=200,
                          help="grid points (default: 200)")),
        *_DATASET_OPTIONS)),
    "design required-pin": ("input power for a target output power", _cmd_required_pin, _AT_D, (
        ("--pout", dict(required=True, help="target output power (e.g. 1W)")),)),
    "design r1-range": ("R1 interval reaching a target distance", _cmd_r1_range, ("l", "f"), (
        ("--target-d", dict(required=True, help="required max distance (e.g. 5m)")),
        ("--branch", dict(choices=BRANCHES, default="origin")),
        ("--search-from", dict(default="-1.5m")),
        ("--search-to", dict(default="-0.5m")))),
    "calibrate": ("aperture radius hitting a target efficiency", _cmd_calibrate, _AT_D, (
        ("--pstored", dict(required=True, help="stored power (e.g. 30W)")),
        ("--eta", dict(required=True, help="target stored-to-beam efficiency")))),
    "reproduce": ("emit the dataset behind a study figure", _cmd_reproduce, (), (
        ("--figure", dict(type=int, required=True, help="figure id, 6..13")),
        *_DATASET_OPTIONS)),
}
_GROUPS = {"design": "inverse design solvers"}  # a first word that takes a second


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The resbeam parser; given a command's words (e.g. "design r1-range"), with it alone.

    A flag that overrides a config key has that key as its dest.
    """
    p = argparse.ArgumentParser(
        prog="resbeam",
        description="Resonant-beam power link: cavity stability and power chain",
        allow_abbrev=False,
    )
    subs = {"": p.add_subparsers(dest="command", required=True)}
    for words, (help, handler, keys, options) in _COMMANDS.items():
        if command not in (None, words):
            continue
        group, _, name = words.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=_GROUPS[group], allow_abbrev=False
                                              ).add_subparsers(required=True)
        sp = subs[group].add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(handler=handler, command=words)
        sp.add_argument("--config", help="configuration file (key = value lines)")
        for key in keys:
            sp.add_argument(f"--{key}", help="transmission distance (e.g. 1m)" if key == "d"
                            else f"{key} with unit suffix (e.g. 60mm, flat)")
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed command line; argparse exits (SystemExit) on --help and on a usage error.

    When argv begins with a command's words, only that command's parser is
    built.  Anything else, and a usage error at the root, goes through the
    full parser, so that its help and error text are those of every command.
    """
    words = " ".join(argv[:2] if argv[:1] == ["design"] else argv[:1])
    if words in _COMMANDS:
        args, unknown = build_parser(words).parse_known_args(argv)
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # The step an error record names: "parse" reads the config file and the key
    # flags, "build" checks the bundle, "evaluate" runs the handler and
    # "serialise" checks and writes its output.  A UnitError that knows its
    # step ("parse" for any quantity token, "build" for the bundle) names it.
    stage = "parse"
    try:
        params = _load(args).system_params()
        stage = "evaluate"
        out = args.handler(args, params)
        stage = "serialise"
        if isinstance(out, dict):
            _check_finite(out)
            _print_record({"command": args.command, **out, "params": provenance_for(params)})
        else:
            _write_dataset(out, args)
        return 0
    except (ResbeamError, ValueError) as exc:
        where = {k: v for k in ("key", "line", "value") if (v := getattr(exc, k, None)) is not None}
        _print_record({"error": type(exc).__name__, "message": str(exc), **where,
                       "stage": getattr(exc, "stage", None) or stage})
        return 1
    except OSError as exc:
        _print_record({"error": "IoError", "message": str(exc), "stage": stage})
        return 1


def entrypoint() -> None:
    """Run main() as the process: the console script and ``python -m resbeam.cli``.

    Only this function freezes the heap, since only it owns the process; main()
    never does, so tests, the library and other in-process callers keep theirs.
    """
    code = main()
    gc.freeze()  # so interpreter shutdown skips collecting and tearing down the heap
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
