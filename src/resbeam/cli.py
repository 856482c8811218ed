"""Command-line interface.

Point evaluations print one JSON record to stdout; sweep-style commands emit
CSV or JSON datasets to --out (or stdout).  Exit codes: 0 success, 1 domain
error (printed as a machine-readable JSON error record), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace

from .cavity import (
    BRANCHES,
    beam_radii,
    g_parameters,
    is_stable,
    max_transmission_distance,
    connecting_r2,
    r1_range_for_distance,
    stability_line,
    stable_distance_intervals,
)
from .config import (SWEEP_VARIABLES, RunConfig, load_config, override, parse_quantity,
                     provenance_for)
from .errors import ResbeamError, require
from .powerchain import (
    SystemParams,
    calibrate_aperture,
    end_to_end,
    required_input_power,
    thresholds,
)

# numpy, explorer and dataset are imported inside the handlers that need them,
# so the point commands start without loading numpy


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


def _command(sub, command: str, help: str, handler, keys=_AT_D):
    """The subparser of `resbeam <command>`, with a flag for each config key its handler reads.

    A flag that overrides a config key has that key as its dest.
    """
    sp = sub.add_parser(command.split()[-1], help=help, allow_abbrev=False)
    sp.set_defaults(handler=handler, command=command)
    sp.add_argument("--config", help="configuration file (key = value lines)")
    for key in keys:
        sp.add_argument(f"--{key}", help="transmission distance (e.g. 1m)" if key == "d"
                        else f"{key} with unit suffix (e.g. 60mm, flat)")
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resbeam",
        description="Resonant-beam power link: cavity stability and power chain",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    _command(sub, "stability", "point stability evaluation", _cmd_stability)

    sp = _command(sub, "intervals", "stable transmission-distance intervals", _cmd_intervals,
                  _GEOMETRY)
    sp.add_argument("--d-limit", default="20", help="search limit (default 20 m)")

    _command(sub, "max-distance", "supremum of the stable distance set", _cmd_max_distance,
             _GEOMETRY)

    sp = _command(sub, "connect-r2", "receiver curvature joining the stability regions",
                  _cmd_connect_r2, ("l", "f", "r1"))
    sp.add_argument("--branch", choices=BRANCHES, required=True)

    sp = _command(sub, "power", "full power ladder at one operating point", _cmd_power)
    sp.add_argument("--pin", required=True, help="input electrical power (e.g. 100W)")

    _command(sub, "thresholds", "stored/beam/input power thresholds", _cmd_thresholds)

    sweep = _command(sub, "sweep", "sweep one variable over a grid", _cmd_sweep)
    sweep.add_argument("--var", dest="sweep_var", choices=SWEEP_VARIABLES, default="d",
                       help="swept variable (default: d)")
    sweep.add_argument("--from", dest="sweep_from", default="0.1", help="grid start (default: 0.1)")
    sweep.add_argument("--to", dest="sweep_to", default="10", help="grid end (default: 10)")
    sweep.add_argument("--points", dest="sweep_points", metavar="POINTS", type=int, default=200,
                       help="grid points (default: 200)")

    design = sub.add_parser("design", help="inverse design solvers", allow_abbrev=False)
    dsub = design.add_subparsers(required=True)

    sp = _command(dsub, "design required-pin", "input power for a target output power",
                  _cmd_required_pin)
    sp.add_argument("--pout", required=True, help="target output power (e.g. 1W)")

    sp = _command(dsub, "design r1-range", "R1 interval reaching a target distance",
                  _cmd_r1_range, ("l", "f"))
    sp.add_argument("--target-d", required=True, help="required max distance (e.g. 5m)")
    sp.add_argument("--branch", choices=BRANCHES, default="origin")
    sp.add_argument("--search-from", default="-1.5m")
    sp.add_argument("--search-to", default="-0.5m")

    sp = _command(sub, "calibrate", "aperture radius hitting a target efficiency",
                  _cmd_calibrate)
    sp.add_argument("--pstored", required=True, help="stored power (e.g. 30W)")
    sp.add_argument("--eta", required=True, help="target stored-to-beam efficiency")

    reproduce = _command(sub, "reproduce", "emit the dataset behind a study figure",
                         _cmd_reproduce, ())
    reproduce.add_argument("--figure", type=int, required=True, help="figure id, 6..13")

    for sp in (sweep, reproduce):  # the dataset commands
        sp.add_argument("--out", help="write the dataset to this path instead of stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="dataset format")

    return p


def _load(args) -> RunConfig:
    """The config file (or the defaults) with the command-line flags laid over it."""
    cfg = load_config(args.config) if args.config else RunConfig()
    return override(cfg, **{f.name: parse_quantity(raw, f.name) for f in fields(RunConfig)
                            if (raw := getattr(args, f.name, None)) is not None})


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


# A handler takes (args, config, bundle) and returns the fields of its JSON
# record, or None once it has written a dataset.
def _cmd_stability(args, cfg: RunConfig, params: SystemParams) -> dict:
    geom = params.geometry
    der = g_parameters(geom, cfg.d)
    stable = is_stable(geom, cfg.d)
    record = {
        "L": der.L,
        "g1": der.g1,
        "g2": der.g2,
        "g1g2": der.g1 * der.g2,
        "stable": stable,
        "radii": None,
    }
    if stable:
        r = beam_radii(geom, cfg.d, cfg.wavelength)
        record["radii"] = {"w_gain": r.w_gain, "w_m1": r.w_m1, "w_m2": r.w_m2}
    return record


def _cmd_intervals(args, cfg: RunConfig, params: SystemParams) -> dict:
    d_limit = parse_quantity(args.d_limit, "d_limit")
    ivals = stable_distance_intervals(params.geometry, d_limit)
    return {
        "d_limit": d_limit,
        "intervals": [[lo, hi] for lo, hi in ivals],
    }


def _cmd_max_distance(args, cfg: RunConfig, params: SystemParams) -> dict:
    md = max_transmission_distance(params.geometry)
    return {
        "d_max": md.d_max,
        "contiguous": md.contiguous,
    }


def _cmd_connect_r2(args, cfg: RunConfig, params: SystemParams) -> dict:
    r2 = connecting_r2(cfg.l, cfg.f, cfg.r1, args.branch)
    line = stability_line(replace(params.geometry, r2=r2))
    return {
        "branch": args.branch,
        "r2": r2,
        "slope": line.slope,
        "intercept": line.intercept,
    }


def _cmd_power(args, cfg: RunConfig, params: SystemParams) -> dict:
    p_in = parse_quantity(args.pin, "pin")
    state, eff = end_to_end(p_in, cfg.d, params)
    # the record keys are the field names of the power ladder and its efficiencies
    return {"stable": is_stable(params.geometry, cfg.d), **asdict(state), **asdict(eff)}


def _cmd_thresholds(args, cfg: RunConfig, params: SystemParams) -> dict:
    th = thresholds(cfg.d, params)
    return {"d": cfg.d, **{f"{stage}_th": value for stage, value in th._asdict().items()}}


def _cmd_sweep(args, cfg: RunConfig, params: SystemParams) -> None:
    import numpy as np

    from .explorer import SweepSpec, sweep

    lo = parse_quantity(args.sweep_from, "sweep_from", args.sweep_var)
    hi = parse_quantity(args.sweep_to, "sweep_to", args.sweep_var)
    require("sweep_from", lo, lo < hi, f"< sweep_to = {hi!r}")
    require("sweep_points", args.sweep_points, args.sweep_points >= 1, ">= 1")
    grid = tuple(float(x) for x in np.linspace(lo, hi, args.sweep_points))
    _write_dataset(sweep(SweepSpec(variable=args.sweep_var, grid=grid, fixed=params)), args)


def _cmd_required_pin(args, cfg: RunConfig, params: SystemParams) -> dict:
    target = parse_quantity(args.pout, "pout")
    pin = required_input_power(target, cfg.d, params)
    return {
        "p_out_target": target,
        "p_in_required": pin,
    }


def _cmd_r1_range(args, cfg: RunConfig, params: SystemParams) -> dict:
    target = parse_quantity(args.target_d, "target_d")
    lo = parse_quantity(args.search_from, "search_from")
    hi = parse_quantity(args.search_to, "search_to")
    ivals = r1_range_for_distance(target, cfg.l, cfg.f, args.branch, (lo, hi))
    return {
        "branch": args.branch,
        "target_d": target,
        "intervals": [[a, b] for a, b in ivals],
    }


def _cmd_calibrate(args, cfg: RunConfig, params: SystemParams) -> dict:
    p_stored = parse_quantity(args.pstored, "pstored")
    eta = parse_quantity(args.eta, "eta")
    a = calibrate_aperture(cfg.d, p_stored, eta, params)
    return {
        "aperture_radius": a,
        "eta_trans_target": eta,
        "p_stored": p_stored,
        "d": cfg.d,
    }


def _cmd_reproduce(args, cfg: RunConfig, params: SystemParams) -> None:
    from .explorer import reproduce_figure

    _write_dataset(reproduce_figure(args.figure, params), args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _load(args)
        params = cfg.system_params()
        record = args.handler(args, cfg, params)
        if record is not None:
            _print_record({"command": args.command, **record, "params": provenance_for(params)})
        return 0
    except (ResbeamError, ValueError) as exc:
        where = {k: v for k in ("key", "line", "value") if (v := getattr(exc, k, None)) is not None}
        _print_record({"error": type(exc).__name__, "message": str(exc), **where})
        return 1
    except OSError as exc:
        _print_record({"error": "IoError", "message": str(exc)})
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
