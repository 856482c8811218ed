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
    stability_line,
    stable_distance_intervals,
)
from .config import SWEEP_VARIABLES, RunConfig, load_config, override, provenance_for, read_value
from .errors import ResbeamError, UnstableConfigurationError
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


def _command(sub, name: str, help: str, geometry: bool = True, with_d: bool = True):
    """A subcommand with the common flags and, unless left out, the geometry flags.

    A flag that overrides a config value has that config key as its dest.
    """
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", help="configuration file (key = value lines)")
    # an empty --out is no override: the config's out_path stays
    sp.add_argument("--out", dest="out_path", metavar="OUT", type=lambda path: path or None,
                    help="write output to this path instead of stdout")
    sp.add_argument("--format", dest="out_format", choices=("csv", "json"),
                    help="dataset output format")
    for flag in ("--l", "--f", "--r1", "--r2") if geometry else ():
        sp.add_argument(flag, help=f"{flag[2:]} with unit suffix (e.g. 60mm, flat)")
    if geometry and with_d:
        sp.add_argument("--d", help="transmission distance (e.g. 1m)")
    return sp


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resbeam",
        description="Resonant-beam power link: cavity stability and power chain",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _command(sub, "stability", "point stability evaluation")

    sp = _command(sub, "intervals", "stable transmission-distance intervals", with_d=False)
    sp.add_argument("--d-limit", default="20", help="search limit (default 20 m)")

    _command(sub, "max-distance", "supremum of the stable distance set", with_d=False)

    sp = _command(sub, "connect-r2", "receiver curvature joining the stability regions",
                  with_d=False)
    sp.add_argument("--branch", choices=BRANCHES, required=True)

    sp = _command(sub, "power", "full power ladder at one operating point")
    sp.add_argument("--pin", required=True, help="input electrical power (e.g. 100W)")

    _command(sub, "thresholds", "stored/beam/input power thresholds")

    sp = _command(sub, "sweep", "sweep one variable over a grid")
    sp.add_argument("--var", dest="sweep_var", choices=SWEEP_VARIABLES,
                    help="default: config sweep_var")
    sp.add_argument("--from", dest="sweep_from", help="default: config sweep_from")
    sp.add_argument("--to", dest="sweep_to", help="default: config sweep_to")
    sp.add_argument("--points", dest="sweep_points", metavar="POINTS", type=int,
                    help="default: config sweep_points")

    design = sub.add_parser("design", help="inverse design solvers")
    dsub = design.add_subparsers(dest="design_command", required=True)

    sp = _command(dsub, "required-pin", "input power for a target output power")
    sp.add_argument("--pout", required=True, help="target output power (e.g. 1W)")

    sp = _command(dsub, "r1-range", "R1 interval reaching a target distance", with_d=False)
    sp.add_argument("--target-d", required=True, help="required max distance (e.g. 5m)")
    sp.add_argument("--branch", choices=BRANCHES, default="origin")
    sp.add_argument("--search-from", default="-1.5m")
    sp.add_argument("--search-to", default="-0.5m")

    sp = _command(sub, "calibrate", "aperture radius hitting a target efficiency")
    sp.add_argument("--pstored", required=True, help="stored power (e.g. 30W)")
    sp.add_argument("--eta", required=True, help="target stored-to-beam efficiency")

    sp = _command(sub, "reproduce", "emit the dataset behind a study figure", geometry=False)
    sp.add_argument("--figure", type=int, required=True, help="figure id, 6..13")

    return p


def _load(args) -> RunConfig:
    """The config file (or the defaults) with the command-line flags laid over it."""
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return override(cfg, **{f.name: read_value(f.name, raw) for f in fields(RunConfig)
                            if (raw := getattr(args, f.name, None)) is not None})


def _print_record(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_dataset(ds, cfg: RunConfig) -> None:
    from .dataset import emit_dataset

    data = emit_dataset(ds, cfg.out_format)
    if cfg.out_path:
        with open(cfg.out_path, "wb") as fh:
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
        try:
            r = beam_radii(geom, cfg.d, cfg.wavelength)
            record["radii"] = {"w_gain": r.w_gain, "w_m1": r.w_m1, "w_m2": r.w_m2}
        except UnstableConfigurationError:
            pass
    return record


def _cmd_intervals(args, cfg: RunConfig, params: SystemParams) -> dict:
    d_limit = read_value("d_limit", args.d_limit)
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
    p_in = read_value("pin", args.pin)
    state, eff = end_to_end(p_in, cfg.d, params)
    # the record keys are the field names of the power ladder and its efficiencies
    return {"stable": is_stable(params.geometry, cfg.d), **asdict(state), **asdict(eff)}


def _cmd_thresholds(args, cfg: RunConfig, params: SystemParams) -> dict:
    th = thresholds(cfg.d, params)
    return {"d": cfg.d, **{f"{stage}_th": value for stage, value in th._asdict().items()}}


def _cmd_sweep(args, cfg: RunConfig, params: SystemParams) -> None:
    import numpy as np

    from .explorer import SweepSpec, sweep

    grid = tuple(float(x) for x in np.linspace(cfg.sweep_from, cfg.sweep_to, cfg.sweep_points))
    _write_dataset(sweep(SweepSpec(variable=cfg.sweep_var, grid=grid, fixed=params)), cfg)


def _cmd_required_pin(args, cfg: RunConfig, params: SystemParams) -> dict:
    target = read_value("pout", args.pout)
    pin = required_input_power(target, cfg.d, params)
    return {
        "p_out_target": target,
        "p_in_required": pin,
    }


def _cmd_r1_range(args, cfg: RunConfig, params: SystemParams) -> dict:
    from .explorer import r1_range_for_distance

    target = read_value("target_d", args.target_d)
    lo = read_value("search_from", args.search_from)
    hi = read_value("search_to", args.search_to)
    ivals = r1_range_for_distance(target, cfg.l, cfg.f, args.branch, (lo, hi))
    return {
        "branch": args.branch,
        "target_d": target,
        "intervals": [[a, b] for a, b in ivals],
    }


def _cmd_calibrate(args, cfg: RunConfig, params: SystemParams) -> dict:
    p_stored = read_value("pstored", args.pstored)
    eta = read_value("eta", args.eta)
    a = calibrate_aperture(cfg.d, p_stored, eta, params)
    return {
        "aperture_radius": a,
        "eta_trans_target": eta,
        "p_stored": p_stored,
        "d": cfg.d,
    }


def _cmd_reproduce(args, cfg: RunConfig, params: SystemParams) -> None:
    from .explorer import reproduce_figure

    _write_dataset(reproduce_figure(args.figure, params), cfg)


_HANDLERS = {
    "stability": _cmd_stability,
    "intervals": _cmd_intervals,
    "max-distance": _cmd_max_distance,
    "connect-r2": _cmd_connect_r2,
    "power": _cmd_power,
    "thresholds": _cmd_thresholds,
    "sweep": _cmd_sweep,
    "design required-pin": _cmd_required_pin,
    "design r1-range": _cmd_r1_range,
    "calibrate": _cmd_calibrate,
    "reproduce": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    command = args.command
    if command == "design":
        command = f"design {args.design_command}"
    try:
        cfg = _load(args)
        params = cfg.system_params()
        record = _HANDLERS[command](args, cfg, params)
        if record is not None:
            _print_record({"command": command, **record, "params": provenance_for(params)})
        return 0
    except (ResbeamError, ValueError) as exc:
        _print_record({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except OSError as exc:
        _print_record({"error": "IoError", "message": str(exc)})
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
