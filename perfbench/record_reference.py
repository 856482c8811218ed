"""Record the cli-cold input pool and its reference outputs.

Run from the repository root at the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

Each pool entry is one CLI invocation (argv, optional config file text) with
the exit code and output the library gave when it was recorded.  Point
records are stored whole; datasets as the SHA-256 of their CSV header and
rows plus their provenance.  Inputs stay inside the stable range; distances
past d_max and the --a/--wavelength flags are left out on purpose (see
workloads.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_build"  # scratch space inside the checkout
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402

POOL_SEED = 20180716
PER_TYPE = 12


def qty(rng, value, unit):
    """A length or power with a randomly chosen unit spelling."""
    if unit == "m" and rng.random() < 0.5:
        return f"{value * 1000:.6f}mm"
    return f"{value:.6f}{unit}"


def geometry_flags(rng):
    """Either the reference geometry or a connected design given by flags."""
    if rng.random() < 0.5:
        return []
    l, r1 = rng.uniform(0.05, 0.10), rng.uniform(-1.4, -1.0)
    r2 = float(O.connecting_r2(l, W.REF["f"], r1, "origin"))
    return ["--l", qty(rng, l, "m"), "--r1", qty(rng, r1, "m"), "--r2", qty(rng, r2, "m")]


def point_argv(rng, kind):
    u = rng.uniform
    d = ["--d", qty(rng, u(0.2, 10.3), "m")]
    if kind == "stability":
        return ["stability"] + d
    if kind == "intervals":
        return ["intervals", "--d-limit", qty(rng, u(5.0, 30.0), "m")] + geometry_flags(rng)
    if kind == "max-distance":
        return ["max-distance"] + geometry_flags(rng)
    if kind == "connect-r2":
        extra = ["--r1", qty(rng, u(-1.5, -0.9), "m")] if rng.random() < 0.5 else []
        return ["connect-r2", "--branch", rng.choice(["origin", "tangent"])] + extra
    if kind == "power":
        return ["power", "--pin", qty(rng, u(20.0, 300.0), "W")] + d
    if kind == "thresholds":
        return ["thresholds"] + d
    if kind == "required-pin":
        return ["design", "required-pin", "--pout", qty(rng, u(0.5, 15.0), "W")] + d
    if kind == "calibrate":
        ps, delta = u(40.0, 80.0), u(0.02, 0.6)
        fd = O.f_of_delta(delta, W.REF["r_out"], W.REF["m_overlap"])
        return ["calibrate", "--pstored", qty(rng, ps, "W"), "--eta", f"{fd + W.REF['c'] / ps:.6f}"] + d
    if kind == "r1-range":
        argv = ["design", "r1-range", "--target-d", qty(rng, u(2.0, 12.0), "m"),
                "--branch", rng.choice(["origin", "tangent"])]
        if rng.random() < 0.5:
            argv += ["--search-from", qty(rng, u(-1.6, -1.2), "m"),
                     "--search-to", qty(rng, u(-0.7, -0.45), "m")]
        return argv
    raise ValueError(kind)


POINT_TYPES = ("stability", "intervals", "max-distance", "connect-r2", "power",
               "thresholds", "required-pin", "calibrate", "r1-range")
SWEEP_RANGES = {"d": (0.1, 10.3), "P_in": (0.0, 200.0), "P_stored": (0.0, 50.0),
                "P_beam": (0.0, 30.0), "R1": (-1.6, -0.4)}


def config_text(rng):
    """A config file that moves the operating point and the gain stage."""
    return (f"# benchmark pool config\n"
            f"d = {rng.uniform(0.5, 9.0):.6f}m\n"
            f"eta_stored = {rng.uniform(0.25, 0.32):.6f}\n"
            f"c = {rng.uniform(-6.5, -5.0):.6f}W\n")


def dataset_argv(rng, kind):
    fmt = "json" if kind.endswith("json") else rng.choice(["csv", "json"]) if kind == "sweep" else "csv"
    if kind == "sweep":
        var = rng.choice(sorted(SWEEP_RANGES))
        lo, hi = SWEEP_RANGES[var]
        span = hi - lo
        a, b = lo + rng.uniform(0, 0.1) * span, hi - rng.uniform(0, 0.1) * span
        unit = "m" if var in ("d", "R1") else "W"
        argv = ["sweep", "--var", var, "--from", f"{a:.6f}{unit}", "--to", f"{b:.6f}{unit}",
                "--points", "200"]
    else:
        argv = ["reproduce", "--figure", str(rng.randint(6, 13))]
    argv += ["--format", fmt]
    if rng.random() < 0.5:
        argv += ["--out", "{out}"]
    return argv, fmt


def run_inprocess(rb, argv, tmp: Path):
    cfg, out = tmp / "pool.cfg", tmp / "pool.out"
    argv = [a.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rb.cli.main(argv)
    written = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return code, buf.getvalue().encode(), written


def main() -> int:
    import resbeam as rb
    import resbeam.cli  # noqa: F401

    rng = random.Random(POOL_SEED)
    entries = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as td:
        tmp = Path(td)
        kinds = [(k, "point") for k in POINT_TYPES] + [
            ("reproduce-csv", "dataset"), ("reproduce-json", "dataset"), ("sweep", "dataset")]
        for kind, cls in kinds:
            made = 0
            while made < PER_TYPE:
                fmt = None
                if cls == "point":
                    argv = point_argv(rng, kind)
                else:
                    argv, fmt = dataset_argv(rng, kind)
                config = config_text(rng) if rng.random() < 0.3 else None
                if config is not None:
                    argv = argv + ["--config", "{cfg}"]
                    (tmp / "pool.cfg").write_text(config, encoding="utf-8")
                code, stdout, written = run_inprocess(rb, argv, tmp)
                if code != 0:
                    continue  # keep only inputs on which the command succeeds
                data = written if written is not None else stdout
                if cls == "point":
                    expect, points = {"record": json.loads(stdout)}, 1
                else:
                    prov, sha = O.dataset_digest(data, fmt)
                    if fmt == "json":  # both formats must agree on one digest
                        csv = rb.dataset.emit_dataset(
                            rb.dataset.Dataset(**_dataset_fields(data)), "csv")
                        assert O.csv_digest(csv)[1] == sha
                    expect = {"body_sha256": sha, "provenance": prov}
                    points = data.count(b"\n") - len(prov) - 1 if fmt == "csv" else \
                        len(json.loads(data)["flag"])
                entries.append({"type": kind, "kind": cls, "argv": argv, "config": config,
                                "format": fmt, "exit": code, "points": points, "expect": expect})
                made += 1
    check_subprocess_agrees(entries)
    out = HERE / "reference" / "cli_pool.json"
    out.parent.mkdir(exist_ok=True)
    doc = {"pool_seed": POOL_SEED, "entries": entries}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {out}")
    return 0


def _dataset_fields(data: bytes) -> dict:
    obj = json.loads(data)
    return {"columns": obj["columns"], "flags": obj["flag"], "provenance": obj["provenance"]}


def check_subprocess_agrees(entries) -> None:
    """The recorded in-process outputs equal a real CLI process's, for a sample."""
    with tempfile.TemporaryDirectory(dir=WORK) as td:
        tmp = Path(td)
        for e in entries[:: max(1, len(entries) // 12)]:
            if e["config"] is not None:
                (tmp / "pool.cfg").write_text(e["config"], encoding="utf-8")
            out = tmp / "pool.out"
            argv = [a.replace("{cfg}", str(tmp / "pool.cfg")).replace("{out}", str(out))
                    for a in e["argv"]]
            proc = subprocess.run([sys.executable, "-m", "resbeam.cli", *argv], capture_output=True)
            written = out.read_bytes() if out.exists() else None
            if not W.check_cli(e, (proc.returncode, proc.stdout, written)):
                raise SystemExit(f"subprocess output differs for {e['argv']}")


if __name__ == "__main__":
    sys.exit(main())
