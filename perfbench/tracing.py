"""Per-layer spans recorded from outside the library.

``install`` replaces every module attribute under ``resbeam`` that binds one
of the traced public functions with a wrapper, because ``explorer`` and
``cli`` import kernels by name: patching only the defining module would miss
their calls.  Each call becomes a span (name, start, end, parent, raised) in
compact in-memory arrays; ``summarise`` reduces them when the run ends.
Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import subprocess
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "cli": ("main",),
    "config": ("parse_quantity", "parse_config", "load_config", "override"),
    "cavity": ("g_parameters", "is_stable", "beam_radii", "max_transmission_distance",
               "stable_distance_intervals", "connecting_r2"),
    "powerchain": ("end_to_end", "beam_power", "transmission_efficiency", "pv_output",
                   "pv_efficiency", "gain_to_beam_coefficient", "thresholds"),
    "diffraction": ("mode_diffraction_loss", "fundamental_loss_vs_distance"),
    "explorer": ("sweep", "reproduce_figure", "max_distance_vs_r1", "r1_range_for_distance",
                 "calibrate_aperture", "required_input_power"),
    "dataset": ("emit_dataset",),
}
# (kernel, solver): kernel calls made under each solver call, reported per call
KERNEL_EVALS = {
    "explorer.r1_range.kernel_evals": ("cavity.connecting_r2", "explorer.r1_range_for_distance"),
    "explorer.calibrate.kernel_evals": ("powerchain.transmission_efficiency",
                                        "explorer.calibrate_aperture"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start, self.end = array("q"), array("q")
        self.parent, self.name, self.raised = array("q"), array("h"), array("b")
        self.stack: list[int] = []
        self.dataset_bytes = 0
        self.rows = 0
        self.flagged_rows = 0
        self.explorer_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, parent, name, raised, stack = (
            self.start, self.end, self.parent, self.name, self.raised, self.stack)
        clock = time.perf_counter_ns
        layer = qualname.split(".")[0]
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            raised.append(0)
            end.append(0)
            stack.append(i)
            if layer == "explorer":
                tracer.explorer_depth += 1
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[i] = clock()
                raised[i] = 1
                raise
            else:
                end[i] = clock()
                tracer._observe(layer, out)
                return out
            finally:
                stack.pop()
                if layer == "explorer":
                    tracer.explorer_depth -= 1

        traced.__wrapped__ = fn
        return traced

    def _observe(self, layer: str, out) -> None:
        if layer == "dataset":
            self.dataset_bytes += len(out)
        elif layer == "explorer" and self.explorer_depth == 1 and hasattr(out, "flags"):
            self.rows += len(out.flags)
            self.flagged_rows += sum(1 for f in out.flags if f)

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "resbeam" or k.startswith("resbeam."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"resbeam.{layer}"]
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if orig is None:  # renamed or removed since: nothing to trace
                    continue
                traced = self.wrap(orig, f"{layer}.{fn_name}")
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def summarise(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        st = np.frombuffer(self.start, dtype=np.int64)
        en = np.frombuffer(self.end, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        raised = np.frombuffer(self.raised, dtype=np.int8).astype(bool)
        dur = (en - st).astype(np.float64)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""])
        lay = layer_of[nid] if len(nid) else np.array([], dtype=str)
        ids = {n: i for i, n in enumerate(self.names)}

        m: dict[str, float] = {}
        for layer in LAYERS:
            sel = lay == layer
            calls = int(sel.sum())
            busy_ms = float(self_ns[sel].sum()) / 1e6
            m[f"{layer}.calls"] = calls
            key = "self_ms" if layer in ("cli", "explorer") else "busy_ms"
            m[f"{layer}.{key}"] = busy_ms
            if layer in ("cavity", "powerchain"):
                m[f"{layer}.ns_per_call"] = busy_ms * 1e6 / calls if calls else 0.0
        m["cavity.domain_errors"] = int((raised & (lay == "cavity")).sum())
        loss = nid == ids.get("diffraction.mode_diffraction_loss", -1)
        m["diffraction.mode_loss_ms_per_call"] = (
            float(dur[loss].sum()) / 1e6 / loss.sum() if loss.any() else 0.0)
        m["explorer.flagged_ratio"] = self.flagged_rows / self.rows if self.rows else 0.0
        for metric, (kernel, solver) in KERNEL_EVALS.items():
            m[metric] = _calls_under(par, nid, ids.get(kernel, -1), ids.get(solver, -1))
        m["dataset.bytes"] = self.dataset_bytes
        busy = m["dataset.busy_ms"]
        m["dataset.mb_per_s"] = self.dataset_bytes / 1e6 / (busy / 1e3) if busy else 0.0
        return m


def _calls_under(par, nid, kernel: int, solver: int) -> float:
    """Kernel spans with a solver ancestor, per solver span."""
    solvers = int((nid == solver).sum())
    if not solvers:
        return 0.0
    cur = par[nid == kernel]
    found = np.zeros(cur.shape, dtype=bool)
    while True:
        live = (cur >= 0) & ~found
        if not live.any():
            break
        found[live] = nid[cur[live]] == solver
        cur = np.where(live & ~found, par[np.maximum(cur, 0)], -1)
    return float(found.sum()) / solvers


def import_times(python: str, env: dict, cwd, repeats: int = 3) -> dict[str, float]:
    """Medians of `python -X importtime -c "import resbeam"`, parsed, in ms."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import resbeam"],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        total = scipy = numpy = own = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = (p.strip() for p in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            if name == "resbeam":
                total = float(cum_us)
            scipy += float(self_us) if top == "scipy" else 0.0
            numpy += float(self_us) if top == "numpy" else 0.0
            own += float(self_us) if top == "resbeam" else 0.0
        runs.append((total, scipy, numpy, own))
    keys = ("import.total_ms", "import.scipy_ms", "import.numpy_ms", "import.resbeam_self_ms")
    return {k: statistics.median(r[i] for r in runs) / 1e3 for i, k in enumerate(keys)}
