"""resbeam benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {cli-cold,sweep-grid,design-solve}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` it starts the workload runner SETUP_REPEATS times to
time set-up, then once more to run the timed closed loop for S seconds, and
prints every end-to-end metric.  Times are scaled to a reference host speed
measured by a fixed probe (hostspeed.py); every process runs on one CPU.
With ``--trace 1`` it runs a fixed, seeded set of operations once without
and once with per-layer spans and prints the per-layer metrics.  Human
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "sweep-grid", "design-solve")
SETUP_REPEATS = 7

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "points_per_s": "1/s", "peak_rss_mb": "MB", "fail_ratio": "1"}
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "points_per_s", "peak_rss_mb")


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ms_per_call", "ms"), ("ns_per_call", "ns"),
                         ("mb_per_s", "MB/s"), ("bytes", "B"), ("_ratio", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # all load comes from one single-threaded process
    return env


def start_runner(args, tmp: Path, setup_only: bool):
    """(seconds from process start to READY, RESULT payload or None)."""
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (not setup_only and result is None):
        raise RuntimeError(f"workload runner exited with code {code}")
    return ready, result


def timed_setup(args, tmp: Path) -> float:
    """Set-up seconds of one runner start, scaled to the reference host speed
    by process-start probes right before and right after it (hostspeed.py)."""
    before = hostspeed.start_slowness()
    ready, _ = start_runner(args, tmp, setup_only=True)
    return ready / (0.5 * (before + hostspeed.start_slowness()))


def pin_to_one_cpu() -> int:
    """Keep this process and every process it starts on one CPU, so the
    host-speed probes run where the timed work runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(seed: int, pinned_cpu: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported source tree has no commit to report
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "resbeam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu, "cpu": cpu, "seed": seed,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def report_timed(args, setups, r) -> dict:
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": r["ops_per_s"],
        "op_p50_ms": r["op_p50_ms"],
        "op_tail_ms": r["op_tail_ms"],
        "points_per_s": r["points_per_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "fail_ratio": r["failed"] / r["attempted"],
    }
    rss = "largest CLI child" if args.workload == "cli-cold" else "runner process"
    tail_of = (f"each of {r['kinds']} kinds, geometric mean" if r["tail_per_kind"]
               else f"{r['samples']} samples")
    notes = {
        "setup_s": f"median of {len(setups)} runner starts: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"median over {r['blocks']} blocks; {r['attempted']} ops, "
                     f"{r['busy_s']:.3f} s of raw latency in a {r['spent_s']:.3f} s loop",
        "op_p50_ms": f"geometric mean of the medians of {r['kinds']} kinds; "
                     f"{r['samples']} samples, >= {r['min_kind_samples']} per kind; "
                     f"raw {r['raw_op_p50_ms']:.6g} ms",
        "op_tail_ms": f"p{r['tail_percentile']:.2f} of {tail_of}, "
                      f">= {r['tail_beyond']} samples beyond; raw {r['raw_op_tail_ms']:.6g} ms",
        "points_per_s": f"median over {r['blocks']} blocks; {r['points']} points",
        "peak_rss_mb": f"ru_maxrss of the {rss}",
        "fail_ratio": f"{r['failed']}/{r['attempted']}",
    }
    probe = "process-start" if args.workload == "cli-cold" else "in-process"
    print(f"  times scaled to the reference host speed (hostspeed.py): {r['probes']} "
          f"{probe} probes, median slowness {r['slowness']:.4g}")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>14.6g} {UNITS[name]:<4}  {notes[name]}")
    return {k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END}


def report_traced(r) -> dict:
    out = {}
    for name, value in sorted(r["per_layer"].items()):
        unit = per_layer_unit(name)
        print(f"  {name:<34} {value:>14.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "resbeam" / "__init__.py").is_file():
        print(f"perfbench: no resbeam sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perfbench-", dir=work))
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS):
            setups.append(timed_setup(args, tmp))
        _, result = start_runner(args, tmp, setup_only=False)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  mix: " + ", ".join(f"{k} {v}" for k, v in result["mix"].items()))
    metrics = report_traced(result) if args.trace else report_timed(args, setups, result)
    env = environment(args.seed, cpu)
    env["samples"] = result.get("samples", result.get("traced_ops"))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
