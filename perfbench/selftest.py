"""Self-test of the benchmark: failures are counted, seeds are reproducible.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import resbeam as rb  # noqa: E402
import resbeam.cli  # noqa: E402,F401

import runner  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture
def work():
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def workload(name, work, in_process=True):
    wl = W.WORKLOADS[name](rb, ROOT, work)
    wl.setup()
    wl.in_process = in_process
    return wl


def first_blocks(wl, seed, n=4):
    return list(itertools.islice(wl.blocks(seed), n))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_operations_other_seed_other(name, work):
    wl = workload(name, work)
    assert first_blocks(wl, 7) == first_blocks(wl, 7)
    assert first_blocks(wl, 7) != first_blocks(wl, 8)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_clean_block_has_no_failures(name, work):
    wl = workload(name, work)
    s = runner.measure(wl, first_blocks(wl, 3, 1), math.inf)
    assert s.failed == 0 and len(s.lat_ns) == len(first_blocks(wl, 3, 1)[0])


def flip_digit(data: bytes) -> bytes:
    """Change the last digit of the data to another digit."""
    i = max(data.rfind(bytes([c])) for c in b"0123456789")
    return data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]


def shift_first_number(record: bytes) -> bytes:
    """Move the first top-level number of a JSON record by one percent.

    Numbers at rounding level (a zero intercept reads 1e-16) are skipped:
    the check rightly accepts a change there.
    """
    obj = json.loads(record)
    key = next(k for k, v in obj.items() if isinstance(v, float) and abs(v) > 1e-9)
    obj[key] *= 1.01
    return json.dumps(obj, sort_keys=True).encode()


def corrupt(name, out):
    if name == "sweep-grid":
        csv, js = out
        return flip_digit(csv), js
    if name == "cli-cold":
        code, stdout, written = out
        if written is not None:
            return code, stdout, flip_digit(written)
        if stdout.startswith(b"{\"columns\"") or stdout.startswith(b"#"):
            return code, flip_digit(stdout), written
        return code, shift_first_number(stdout), written
    if isinstance(out, float):
        return out + 1e-6
    if isinstance(out, list):  # r1_range intervals
        return [(a + 0.01, b) for a, b in out]
    if hasattr(out, "d_max"):
        return out._replace(d_max=out.d_max * 1.01)
    dropped = out.intervals[:-1] if out.intervals else ((0.001, 0.002),)
    return type(out)(intervals=tuple(dropped))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_corrupted_output_raises_fail_ratio(name, work):
    wl = workload(name, work)
    real_run = wl.run
    wl.run = lambda inputs: corrupt(name, real_run(inputs))
    result = runner.timed_run(wl, wl.blocks(5), seconds=1e-9)  # one block
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]


def test_wrong_exit_code_is_a_failure(work):
    wl = workload("cli-cold", work, in_process=False)
    idx = next(i for i, e in enumerate(wl.pool) if e["type"] == "power")
    assert runner.measure(wl, [[idx]], math.inf).failed == 0
    # --a is listed as a value flag but accepted by no subcommand: exit 2
    wl.pool[idx] = dict(wl.pool[idx], argv=wl.pool[idx]["argv"] + ["--a", "1mm"])
    s = runner.measure(wl, [[idx]], math.inf)
    assert s.failed == 1 and len(s.lat_ns) == 1


def test_unexpected_exception_is_a_failure(work):
    wl = workload("design-solve", work)
    good = {"kind": "calibrate", "d": 1.0, "p_stored": 30.0, "eta": 0.61}
    bad = dict(good, p_stored=0.0)  # calibrate_aperture raises ValueError
    s = runner.measure(wl, [[good, bad, good]], math.inf)
    assert (len(s.lat_ns), s.failed) == (3, 1)


def stats(latencies: dict) -> runner.Stats:
    s = runner.Stats()
    for kind, values in latencies.items():
        for v in values:
            s.add(kind, v)
    return s


def test_tail_percentile_leaves_ten_samples_beyond():
    s = stats({"a": range(1, 101)})
    summary = runner.latency_summary(s, tail_per_kind=False, values=s.lat_ns)
    assert summary["tail_beyond"] == 10
    assert summary["op_tail_ms"] == pytest.approx(90 / 1e6)
    assert summary["tail_percentile"] == 90.0


def test_latency_weights_each_kind_equally():
    s = stats({"fast": [100] * 300, "slow": [10_000] * 100})
    summary = runner.latency_summary(s, tail_per_kind=True, values=s.lat_ns)
    assert summary["op_p50_ms"] == pytest.approx(1000 / 1e6)
    assert summary["op_tail_ms"] == pytest.approx(1000 / 1e6)
    pooled = runner.latency_summary(s, tail_per_kind=False, values=s.lat_ns)
    assert pooled["op_tail_ms"] == pytest.approx(10_000 / 1e6)


def test_latency_is_scaled_by_the_probes_around_it(work, monkeypatch):
    """A host running half as fast doubles the probe and the raw latency; the
    scaled latency stays put."""
    wl = workload("design-solve", work)
    probes = iter((1, 3, 2, 2))  # the first, then one per block
    monkeypatch.setattr(runner, "PROBE_GAP_NS", math.inf)  # probe at block ends only
    monkeypatch.setattr(runner.hostspeed, "work_slowness", lambda: next(probes))
    s = runner.measure(wl, first_blocks(wl, 3, 3), math.inf)
    assert s.failed == 0 and len(s.blocks) == 3
    per_block = len(s.lat_ns) // 3
    for b, mean_probe in enumerate((2.0, 2.5, 2.0)):
        for i in range(b * per_block, (b + 1) * per_block):
            assert s.cal_ns[i] == pytest.approx(s.lat_ns[i] / mean_probe)
    assert [ns for _, _, ns in s.blocks] == pytest.approx(
        [math.fsum(s.cal_ns[b * per_block:(b + 1) * per_block]) for b in range(3)])
