"""How fast the host runs right now, measured with a fixed piece of work.

The benchmark runs on shared virtual machines whose speed drifts: the same
operation can take 1.6 times longer for seconds to minutes, because other
tenants load the physical cores.  A timing taken alone then says as much
about the host as about resbeam.  So the runner measures the host's
slowness right before and right after the operations it times, and divides
each operation's latency by the mean of the two.

Slowness is the time of a fixed piece of work over its reference time, the
time it took on the 2-vCPU Intel Xeon VM the baseline was taken on when that
host ran fast; so scaled times read as times on that host.  There are two
pieces of work, because work inside a process and starting a process slow
down differently:

* ``work_slowness`` runs pure-Python and small-numpy work that resembles
  what resbeam does in-process: scalar float maths in small functions,
  attribute access, ``repr`` formatting and joining, short numpy reductions.
* ``start_slowness`` starts ``python -c "import numpy"``: interpreter start
  and a package import, as in a CLI invocation or the benchmark's set-up.

Neither calls resbeam, so a change to resbeam moves the scaled times as much
as the raw ones.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import numpy as np

WORK_REF_NS = 2_000_000    # one unit of _work() on the reference host, fast phase
START_REF_NS = 150_000_000  # one start of python -c "import numpy" there


class _Mirror:
    __slots__ = ("l", "r")

    def __init__(self, l, r):
        self.l, self.r = l, r


def _g(m: _Mirror, d: float) -> float:
    return 1.0 - (m.l + d) / m.r


def _spot(a: _Mirror, b: _Mirror, d: float):
    gg = _g(a, d) * _g(b, d)
    if not 0.0 < gg < 1.0:
        return None
    return math.sqrt(gg / (1.0 - gg))


def _work() -> int:
    a, b = _Mirror(0.06, -1.0), _Mirror(0.0, 5.25)
    rows = []
    for i in range(600):
        d = 0.0125 * i
        w = _spot(a, b, d)
        rows.append(f"{d!r},{w if w is not None else 0.0!r},{math.exp(-d)!r}")
    x = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for i in range(60):
        acc += float(np.sum(x * (1.0 + i)))
    for i in range(6000):
        acc += math.sqrt(i) * 0.5
    return len("\n".join(rows)) + int(acc)


def work_slowness() -> float:
    """How much slower than the reference host in-process work runs now."""
    t0 = time.perf_counter_ns()
    _work()
    return (time.perf_counter_ns() - t0) / WORK_REF_NS


def start_slowness() -> float:
    """How much slower than the reference host a process starts now."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return (time.perf_counter_ns() - t0) / START_REF_NS
