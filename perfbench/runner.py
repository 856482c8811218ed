"""One workload process: set up, run the timed closed loop, check, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints ``READY`` once set-up is done (imports, input generation, warm-up),
then, unless ``--setup-only``, runs the workload and prints one
``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

TAIL_BEYOND = 10      # samples required beyond the reported tail percentile
MAX_FAILURE_LOGS = 5
PROBE_GAP_NS = 20_000_000  # operation time between two host-speed probes, at most (plus one op)


class Stats:
    def __init__(self):
        self.lat_ns = array("q")   # raw latency per operation; compact, so run length barely moves peak RSS
        self.cal_ns = array("d")   # latency scaled to the reference host speed (hostspeed.py)
        self.kind_of = array("h")  # index into kind_names, per operation
        self.kind_names: list[str] = []
        self.points = 0
        self.failed = 0
        self.busy_ns = 0   # sum of the operations' raw latencies
        self.spent_ns = 0  # wall time of the loop: calls, checks and probes
        self.slowness = array("d")  # every host-speed probe taken
        self.blocks: list[tuple[int, int, float]] = []  # (operations, points, scaled ns) per block

    def add(self, kind: str, lat_ns: int) -> None:
        if kind not in self.kind_names:
            self.kind_names.append(kind)
        self.kind_of.append(self.kind_names.index(kind))
        self.lat_ns.append(lat_ns)
        self.cal_ns.append(math.nan)  # set by the next probe
        self.busy_ns += lat_ns

    def by_kind(self, values=None) -> dict[str, list]:
        out = {k: [] for k in self.kind_names}
        for i, t in zip(self.kind_of, self.lat_ns if values is None else values):
            out[self.kind_names[i]].append(t)
        return out


class HostScale:
    """Scales the latencies of a stretch of operations by the host's slowness
    measured right before and right after it (hostspeed.py)."""

    def __init__(self, s: Stats, in_process: bool):
        self.s = s
        self.slowness = hostspeed.work_slowness if in_process else hostspeed.start_slowness
        self.first = len(s.lat_ns)  # first operation not yet scaled
        self.last = self.probe()

    def probe(self) -> float:
        x = self.slowness()
        self.s.slowness.append(x)
        return x

    def pending_ns(self) -> int:
        return sum(self.s.lat_ns[self.first:])

    def flush(self) -> None:
        s = self.s
        if self.first == len(s.lat_ns):
            return
        now = self.probe()
        slowness = 0.5 * (self.last + now)
        for i in range(self.first, len(s.lat_ns)):
            s.cal_ns[i] = s.lat_ns[i] / slowness
        self.first, self.last = len(s.lat_ns), now


def measure(wl, blocks, budget_ns: float, log=sys.stderr) -> Stats:
    """Run whole blocks until the loop has run for the budget.

    Only the calls into resbeam are timed; preparing inputs and checking each
    output happen between them.  A host-speed probe runs before the first
    operation, after any stretch of operations that took PROBE_GAP_NS, and
    at the end of every block; each latency is also kept scaled by the
    probes around it.  An exception, a wrong exit code or an output that
    fails its check each count as one failed operation.
    """
    s = Stats()
    clock = time.perf_counter_ns
    start = clock()
    host = HostScale(s, wl.in_process)
    for block in blocks:
        before = (len(s.lat_ns), s.points)
        for spec in block:
            args = wl.prepare(spec)
            out, err = None, None
            t0 = clock()
            try:
                out = wl.run(args)
            except Exception as exc:  # counted, reported, and the loop goes on
                err = exc
            lat = clock() - t0
            if err is None:
                try:
                    if not wl.check(spec, out):
                        err = "output does not match its reference"
                except Exception as exc:
                    err = exc
            if err is None:
                s.points += wl.points(spec, out)
            else:
                s.failed += 1
                if s.failed <= MAX_FAILURE_LOGS:
                    print(f"perfbench: {wl.name} operation failed: {err!r}: {spec!r}"[:2000],
                          file=log)
            wl.finish(spec)
            s.add(wl.kind(spec), lat)
            if host.pending_ns() >= PROBE_GAP_NS:
                host.flush()
        host.flush()
        s.blocks.append((len(s.lat_ns) - before[0], s.points - before[1],
                         math.fsum(s.cal_ns[before[0]:])))
        s.spent_ns = clock() - start
        if s.spent_ns >= budget_ns:
            break
    return s


def tail(lat_ns: list[int]) -> tuple[int, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it, or the maximum of fewer samples."""
    x = sorted(lat_ns)
    k = max(0, len(x) - TAIL_BEYOND - 1)
    return x[k], 100.0 * (k + 1) / len(x), len(x) - k - 1


def geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(max(v, 1)) for v in values) / len(values))


def latency_summary(s: Stats, tail_per_kind: bool, values) -> dict:
    """Median and tail of ``values`` (one latency per operation of ``s``),
    each kind of operation weighted equally.

    ``op_p50_ms`` is the geometric mean over operation kinds of each kind's
    median, so it never sits on the boundary between two kinds.  The tail is
    taken within each kind and combined the same way when ``tail_per_kind``
    (every kind has many samples), else over all operations of the run.
    """
    groups = s.by_kind(values)
    tails = [tail(g) for g in (groups.values() if tail_per_kind else [list(values)])]
    return {
        "samples": len(values),
        "kinds": len(groups),
        "min_kind_samples": min(map(len, groups.values())),
        "op_p50_ms": geomean(statistics.median(g) for g in groups.values()) / 1e6,
        "op_tail_ms": geomean(t[0] for t in tails) / 1e6,
        "tail_percentile": min(t[1] for t in tails),
        "tail_beyond": min(t[2] for t in tails),
        "tail_per_kind": tail_per_kind,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, blocks, seconds: float) -> dict:
    """End-to-end figures from scaled latencies; rates are the median over
    blocks, so stalls in a few blocks do not decide them."""
    s = measure(wl, blocks, seconds * 1e9)
    raw = latency_summary(s, wl.tail_per_kind, s.lat_ns)
    out = {
        "attempted": len(s.lat_ns),
        "failed": s.failed,
        "busy_s": s.busy_ns / 1e9,
        "spent_s": s.spent_ns / 1e9,
        "blocks": len(s.blocks),
        "ops_per_s": statistics.median(ops * 1e9 / ns for ops, _, ns in s.blocks),
        "points_per_s": statistics.median(pts * 1e9 / ns for _, pts, ns in s.blocks),
        "points": s.points,
        "peak_rss_mb": peak_rss_mb(wl.in_process),
        "mix": {k: len(v) for k, v in sorted(s.by_kind().items())},
        "probes": len(s.slowness),
        "slowness": statistics.median(s.slowness),
        "raw_op_p50_ms": raw["op_p50_ms"],
        "raw_op_tail_ms": raw["op_tail_ms"],
    }
    out.update(latency_summary(s, wl.tail_per_kind, s.cal_ns))
    return out


def traced_run(wl, blocks) -> dict:
    """The workload's first ``trace_blocks`` blocks, untraced and then traced.

    The amount of work is fixed by the seed, not by the speed of the code, so
    per-layer totals compare between commits.
    """
    import tracing

    wl.in_process = True  # cli-cold calls resbeam.cli.main in this process
    specs = [spec for block in itertools.islice(blocks, wl.trace_blocks) for spec in block]
    plain = measure(wl, [specs], math.inf)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = measure(wl, [specs], math.inf)
    finally:
        tracer.uninstall()
    metrics = tracer.summarise()
    metrics["trace.overhead_ratio"] = traced.busy_ns / plain.busy_ns
    metrics.update(tracing.import_times(sys.executable, dict(os.environ), ROOT))
    return {
        "attempted": len(plain.lat_ns) + len(traced.lat_ns),
        "failed": plain.failed + traced.failed,
        "traced_ops": len(traced.lat_ns),
        "mix": {k: len(v) for k, v in sorted(traced.by_kind().items())},
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import resbeam as rb
    import resbeam.cli  # noqa: F401  (the cli module is not imported by the package)

    src = (ROOT / "src").resolve()
    if src not in Path(rb.__file__).resolve().parents:
        print(f"perfbench: resbeam imported from {rb.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](rb, ROOT, Path(args.tmp))
    wl.setup()
    blocks = wl.blocks(args.seed)
    blocks = itertools.chain([next(blocks)], blocks)  # input generation is set-up
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = traced_run(wl, blocks) if args.trace else timed_run(wl, blocks, args.seconds)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
