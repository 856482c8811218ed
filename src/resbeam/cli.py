"""Command-line interface.

Point evaluations print one JSON record to stdout; sweep-style commands emit
CSV or JSON datasets to --out (or stdout).  Exit codes: 0 success, 1 domain
error (printed as a machine-readable JSON error record), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cavity import (
    BRANCHES,
    CavityGeometry,
    beam_radii,
    g_parameters,
    is_stable,
    max_transmission_distance,
    connecting_r2,
    stability_line,
    stable_distance_intervals,
)
from .config import RunConfig, load_config, override, parse_quantity
from .dataset import emit_dataset
from .errors import ResbeamError, UnstableConfigurationError
from .explorer import (
    SWEEP_VARIABLES,
    SweepSpec,
    calibrate_aperture,
    provenance_for,
    r1_range_for_distance,
    reproduce_figure,
    required_input_power,
    sweep,
    thresholds_record,
)
from .powerchain import end_to_end

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


def _add_common(sp):
    sp.add_argument("--config", help="configuration file (key = value lines)")
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--format", choices=("csv", "json"), help="dataset output format")


def _add_geometry(sp, with_d=True):
    for name in ("--l", "--f", "--r1", "--r2"):
        sp.add_argument(name, help=f"{name[2:]} with unit suffix (e.g. 60mm, flat)")
    if with_d:
        sp.add_argument("--d", help="transmission distance (e.g. 1m)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="resbeam",
        description="Resonant-beam power link: cavity stability and power chain",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stability", help="point stability evaluation")
    _add_common(sp)
    _add_geometry(sp)

    sp = sub.add_parser("intervals", help="stable transmission-distance intervals")
    _add_common(sp)
    _add_geometry(sp, with_d=False)
    sp.add_argument("--d-limit", default="20", help="search limit (default 20 m)")

    sp = sub.add_parser("max-distance", help="supremum of the stable distance set")
    _add_common(sp)
    _add_geometry(sp, with_d=False)

    sp = sub.add_parser("connect-r2", help="receiver curvature joining the stability regions")
    _add_common(sp)
    _add_geometry(sp, with_d=False)
    sp.add_argument("--branch", choices=BRANCHES, required=True)

    sp = sub.add_parser("power", help="full power ladder at one operating point")
    _add_common(sp)
    _add_geometry(sp)
    sp.add_argument("--pin", required=True, help="input electrical power (e.g. 100W)")

    sp = sub.add_parser("thresholds", help="stored/beam/input power thresholds")
    _add_common(sp)
    _add_geometry(sp)

    sp = sub.add_parser("sweep", help="sweep one variable over a grid")
    _add_common(sp)
    _add_geometry(sp)
    sp.add_argument("--var", choices=SWEEP_VARIABLES, help="default: config sweep_var")
    sp.add_argument("--from", dest="sweep_from", help="default: config sweep_from")
    sp.add_argument("--to", dest="sweep_to", help="default: config sweep_to")
    sp.add_argument("--points", type=int, help="default: config sweep_points")

    design = sub.add_parser("design", help="inverse design solvers")
    dsub = design.add_subparsers(dest="design_command", required=True)

    sp = dsub.add_parser("required-pin", help="input power for a target output power")
    _add_common(sp)
    _add_geometry(sp)
    sp.add_argument("--pout", required=True, help="target output power (e.g. 1W)")

    sp = dsub.add_parser("r1-range", help="R1 interval reaching a target distance")
    _add_common(sp)
    _add_geometry(sp, with_d=False)
    sp.add_argument("--target-d", required=True, help="required max distance (e.g. 5m)")
    sp.add_argument("--branch", choices=BRANCHES, default="origin")
    sp.add_argument("--search-from", default="-1.5m")
    sp.add_argument("--search-to", default="-0.5m")

    sp = sub.add_parser("calibrate", help="aperture radius hitting a target efficiency")
    _add_common(sp)
    _add_geometry(sp)
    sp.add_argument("--pstored", required=True, help="stored power (e.g. 30W)")
    sp.add_argument("--eta", required=True, help="target stored-to-beam efficiency")

    sp = sub.add_parser("reproduce", help="emit the dataset behind a study figure")
    _add_common(sp)
    sp.add_argument("--figure", type=int, required=True, help="figure id, 6..13")

    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    geo = {}
    for key in ("l", "f", "r1", "r2", "d"):
        raw = getattr(args, key, None)
        if raw is not None:
            geo[key] = parse_quantity(raw, key)
    if getattr(args, "format", None):
        geo["out_format"] = args.format
    if getattr(args, "out", None):
        geo["out_path"] = args.out
    return override(cfg, **geo)


def _print_record(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _write_dataset(ds, cfg: RunConfig) -> None:
    data = emit_dataset(ds, cfg.out_format)
    if cfg.out_path:
        with open(cfg.out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _cmd_stability(args) -> int:
    cfg = _load(args)
    geom = cfg.geometry()
    der = g_parameters(geom, cfg.d)
    stable = is_stable(geom, cfg.d)
    record = {
        "command": "stability",
        "L": der.L,
        "g1": der.g1,
        "g2": der.g2,
        "g1g2": der.g1 * der.g2,
        "stable": stable,
        "radii": None,
        "params": provenance_for(cfg.system_params()),
    }
    if stable:
        try:
            r = beam_radii(geom, cfg.d, cfg.wavelength)
            record["radii"] = {"w_gain": r.w_gain, "w_m1": r.w_m1, "w_m2": r.w_m2}
        except UnstableConfigurationError:
            pass
    _print_record(record)
    return 0


def _cmd_intervals(args) -> int:
    cfg = _load(args)
    d_limit = parse_quantity(args.d_limit, "d")
    ivals = stable_distance_intervals(cfg.geometry(), d_limit)
    _print_record({
        "command": "intervals",
        "d_limit": d_limit,
        "intervals": [[lo, hi] for lo, hi in ivals],
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_max_distance(args) -> int:
    cfg = _load(args)
    md = max_transmission_distance(cfg.geometry())
    _print_record({
        "command": "max-distance",
        "d_max": md.d_max,
        "contiguous": md.contiguous,
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_connect_r2(args) -> int:
    cfg = _load(args)
    r2 = connecting_r2(cfg.l, cfg.f, cfg.r1, args.branch)
    line = stability_line(CavityGeometry(l=cfg.l, f=cfg.f, r1=cfg.r1, r2=r2))
    _print_record({
        "command": "connect-r2",
        "branch": args.branch,
        "r2": r2,
        "slope": line.slope,
        "intercept": line.intercept,
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_power(args) -> int:
    cfg = _load(args)
    p_in = parse_quantity(args.pin, "pin")
    params = cfg.system_params()
    state, eff = end_to_end(
        p_in, cfg.d, params.gain, params.pv, params.aperture_radius,
        params.wavelength, params.l,
    )
    _print_record({
        "command": "power",
        "stable": is_stable(params.geometry, cfg.d),
        "p_in": state.p_in,
        "p_stored": state.p_stored,
        "p_beam": state.p_beam,
        "p_out": state.p_out,
        "eta_stored": eff.eta_stored,
        "eta_trans": eff.eta_trans,
        "eta_pv": eff.eta_pv,
        "eta_all": eff.eta_all,
        "params": provenance_for(params),
    })
    return 0


def _cmd_thresholds(args) -> int:
    cfg = _load(args)
    _print_record(thresholds_record(cfg.d, cfg.system_params()))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    var = args.var or cfg.sweep_var
    lo = parse_quantity(args.sweep_from, "sweep_from") if args.sweep_from else cfg.sweep_from
    hi = parse_quantity(args.sweep_to, "sweep_to") if args.sweep_to else cfg.sweep_to
    points = args.points if args.points is not None else cfg.sweep_points
    grid = tuple(float(x) for x in np.linspace(lo, hi, points))
    ds = sweep(SweepSpec(variable=var, grid=grid, fixed=cfg.system_params()))
    _write_dataset(ds, cfg)
    return 0


def _cmd_required_pin(args) -> int:
    cfg = _load(args)
    target = parse_quantity(args.pout, "pout")
    pin = required_input_power(target, cfg.d, cfg.system_params())
    _print_record({
        "command": "design required-pin",
        "p_out_target": target,
        "p_in_required": pin,
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_r1_range(args) -> int:
    cfg = _load(args)
    target = parse_quantity(args.target_d, "d")
    lo = parse_quantity(args.search_from, "r1")
    hi = parse_quantity(args.search_to, "r1")
    ivals = r1_range_for_distance(target, cfg.l, cfg.f, args.branch, (lo, hi))
    _print_record({
        "command": "design r1-range",
        "branch": args.branch,
        "target_d": target,
        "intervals": [[a, b] for a, b in ivals],
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load(args)
    p_stored = parse_quantity(args.pstored, "pstored")
    eta = parse_quantity(args.eta, "eta")
    a = calibrate_aperture(cfg.d, p_stored, eta, cfg.system_params())
    _print_record({
        "command": "calibrate",
        "aperture_radius": a,
        "eta_trans_target": eta,
        "p_stored": p_stored,
        "d": cfg.d,
        "params": provenance_for(cfg.system_params()),
    })
    return 0


def _cmd_reproduce(args) -> int:
    cfg = _load(args)
    ds = reproduce_figure(args.figure, cfg.system_params())
    _write_dataset(ds, cfg)
    return 0


_DISPATCH = {
    "stability": _cmd_stability,
    "intervals": _cmd_intervals,
    "max-distance": _cmd_max_distance,
    "connect-r2": _cmd_connect_r2,
    "power": _cmd_power,
    "thresholds": _cmd_thresholds,
    "sweep": _cmd_sweep,
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
    try:
        if args.command == "design":
            handler = _cmd_required_pin if args.design_command == "required-pin" else _cmd_r1_range
            return handler(args)
        return _DISPATCH[args.command](args)
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
