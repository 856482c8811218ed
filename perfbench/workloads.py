"""The three benchmark workloads: seeded operation streams and their checks.

Each workload is a closed loop with one client.  It yields blocks of
operation specs from ``blocks(seed)``; every block has the same mix of
operation types in a seeded order with seeded parameters, so the mix of a
run does not depend on how many blocks fit in the time box.  For each spec
the runner calls ``prepare`` (untimed: builds inputs), ``run`` (timed: the
calls into resbeam) and ``check`` (untimed: compares the output with a
stored reference or with an independent recomputation in ``oracle``).

Why these three:

* ``cli-cold`` is the terminal and script path: one ``python -m
  resbeam.cli`` process per operation, so process start and imports
  dominate.  Inputs come from a pool recorded at the benchmark's seed commit
  (``reference/cli_pool.json``).  The pool leaves out distances past d_max
  (about 10.43 m) and the ``--a``/``--wavelength`` flags: their behaviour is
  a known open defect due to change on purpose, and a reference taken now
  would force that fix to edit the benchmark.
* ``sweep-grid`` is in-process bulk evaluation: seeded dense grids over all
  five sweep variables plus ``max_distance_vs_r1`` on both branches, each
  dataset emitted as CSV and JSON.  The scalar loops in cavity and
  powerchain, the explorer drivers and dataset serialisation dominate.
* ``design-solve`` is a stream of small latency-bound solver and kernel
  calls: the same cavity kernels as ``sweep-grid``, but one scalar at a time
  inside bisection loops, plus the diffraction quadrature.  A vectorised
  rewrite that wins on ``sweep-grid`` but adds per-call overhead loses here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle as O

# The reference parameter set, as plain numbers the benchmark passes in.
REF = dict(
    l=0.06, f=0.88, r1=-1.0, r2=5.246612466124661, d=1.0, p_in=100.0,
    a=7.855301511370797e-4, wavelength=1.064e-6, eta_stored=0.2849,
    m_overlap=1.0, c=-5.64, r_out=0.88, a1=0.3487, b1=-1.535,
)
PROV_KEYS = ("l", "f", "r1", "r2", "d", "a", "wavelength", "eta_stored",
             "m_overlap", "c", "r_out", "a1", "b1", "p_in")


def system_params(rb, **over):
    p = dict(REF, **over)
    return rb.SystemParams(
        geometry=rb.CavityGeometry(l=p["l"], f=p["f"], r1=p["r1"], r2=p["r2"]),
        gain=rb.GainParams(eta_stored=p["eta_stored"], m_overlap=p["m_overlap"],
                           c=p["c"], r_out=p["r_out"]),
        pv=rb.PvParams(a1=p["a1"], b1=p["b1"]),
        aperture_radius=p["a"], wavelength=p["wavelength"], d=p["d"], p_in=p["p_in"],
    )


def expected_provenance(p: dict, **extra) -> dict:
    out = {k: repr(p[k]) for k in PROV_KEYS}
    out.update({k: str(v) for k, v in extra.items()})
    return out


class Workload:
    name = ""
    in_process = True
    tail_per_kind = False  # take the latency tail within each kind of operation
    trace_blocks = 1       # blocks the traced run replays

    def __init__(self, rb, root: Path, tmp: Path):
        self.rb, self.root, self.tmp = rb, root, tmp

    def setup(self) -> None:
        """Load inputs and warm up; counted in setup_s."""

    def blocks(self, seed: int):
        raise NotImplementedError

    def prepare(self, spec):
        return spec

    def run(self, inputs):
        raise NotImplementedError

    def check(self, spec, out) -> bool:
        raise NotImplementedError

    def points(self, spec, out) -> int:
        return 1

    def kind(self, spec) -> str:
        return spec["kind"]

    def finish(self, spec) -> None:
        """Release per-operation files; untimed."""


def warm_up(wl, specs) -> None:
    """Run each spec once, untimed and unchecked: the timed loop counts failures."""
    for spec in specs:
        try:
            wl.run(wl.prepare(spec))
        except Exception:
            pass


# ---------------------------------------------------------------------------
# cli-cold


def load_pool(root: Path) -> list[dict]:
    with open(root / "perfbench" / "reference" / "cli_pool.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


class CliCold(Workload):
    """One resbeam CLI process per operation, run one at a time."""

    name = "cli-cold"
    in_process = False
    trace_blocks = 20

    def setup(self):
        self.pool = load_pool(self.root)
        self.by_type: dict[str, list[int]] = {}
        for i, e in enumerate(self.pool):
            self.by_type.setdefault(e["type"], []).append(i)
        for i, e in enumerate(self.pool):
            if e["config"] is not None:
                (self.tmp / f"cfg{i}.cfg").write_text(e["config"], encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def blocks(self, seed):
        rng = random.Random(seed)
        types = sorted(self.by_type)
        while True:  # one invocation of each command type per block
            rng.shuffle(types)
            yield [rng.choice(self.by_type[t]) for t in types]

    def prepare(self, idx):
        e = self.pool[idx]
        out = self.tmp / f"out{idx}.{e['format'] or 'txt'}"
        argv = [a.replace("{cfg}", str(self.tmp / f"cfg{idx}.cfg")).replace("{out}", str(out))
                for a in e["argv"]]
        return argv, out if "{out}" in e["argv"] else None

    def run(self, inputs):
        argv, out = inputs
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.rb.cli.main(argv)
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run([sys.executable, "-m", "resbeam.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True)
            code, stdout = proc.returncode, proc.stdout
        return code, stdout, out.read_bytes() if out is not None else None

    def check(self, idx, out):
        return check_cli(self.pool[idx], out)

    def points(self, idx, out):
        return self.pool[idx]["points"]

    def kind(self, idx):
        return self.pool[idx]["type"]

    def finish(self, idx):
        _, out = self.prepare(idx)
        if out is not None and out.exists():
            out.unlink()


def check_cli(entry: dict, out) -> bool:
    code, stdout, written = out
    if code != entry["exit"]:
        return False
    expect = entry["expect"]
    if entry["kind"] == "dataset":
        prov, sha = O.dataset_digest(written if written is not None else stdout, entry["format"])
        return sha == expect["body_sha256"] and O.provenance_ok(prov, expect["provenance"])
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    return record_ok(entry["type"], got, expect["record"])


def record_ok(kind: str, got, want) -> bool:
    """A CLI point record matches its reference (superset of keys allowed)."""
    if not isinstance(got, dict):
        return False
    for key, w in want.items():
        if key not in got:
            return False
        g = got[key]
        if key == "params":
            ok = isinstance(g, dict) and O.provenance_ok(g, w)
        elif kind == "r1-range" and key == "intervals":
            ok = len(g) == len(w) and all(
                abs(x - y) <= O.R1_EDGE_TOL for gi, wi in zip(g, w) for x, y in zip(gi, wi))
        elif kind == "calibrate" and key == "aperture_radius":
            ok = abs(g - w) <= O.APERTURE_TOL
        else:
            ok = values_close(g, w)
        if not ok:
            return False
    return True


def values_close(g, w) -> bool:
    if isinstance(w, dict):
        return isinstance(g, dict) and all(k in g and values_close(g[k], v) for k, v in w.items())
    if isinstance(w, list):
        return isinstance(g, list) and len(g) == len(w) and all(map(values_close, g, w))
    return O.close(g, w)


# ---------------------------------------------------------------------------
# sweep-grid

GRID_POINTS = 1000  # rows per dataset: short calls, so the host-speed probes stay close to each
SWEEP_TYPES = ("d", "P_in", "P_stored", "P_beam", "R1", "mdr1-origin", "mdr1-tangent")


class SweepGrid(Workload):
    """Dense in-process sweeps, every dataset emitted as CSV and JSON."""

    name = "sweep-grid"
    tail_per_kind = True  # about 40 calls of each kind per run; pooled, the slowest kind alone sets the tail
    trace_blocks = 16

    def setup(self):
        rng = random.Random(0)
        warm_up(self, [self.make(rng, t, points=64) for t in SWEEP_TYPES])

    def make(self, rng, kind, points=GRID_POINTS):
        u = rng.uniform
        spec = {"kind": kind, "n": points, "d": u(0.5, 10.0), "p_in": u(30.0, 150.0)}
        if kind == "d":
            spec.update(lo=u(0.05, 0.5), hi=u(9.5, 10.4))
        elif kind == "P_in":
            spec.update(lo=u(0.0, 5.0), hi=u(150.0, 250.0))
        elif kind == "P_stored":
            spec.update(lo=rng.choice([0.0, u(0.0, 2.0)]), hi=u(40.0, 60.0))
        elif kind == "P_beam":
            spec.update(lo=rng.choice([0.0, u(0.0, 1.0)]), hi=u(25.0, 35.0))
        else:  # R1 grids across the degenerate point R1 = l - f
            spec.update(lo=u(-1.6, -1.4), hi=u(-0.6, -0.4), l=rng.choice([0.06, 0.08, 0.10]))
        return spec

    def blocks(self, seed):
        rng = random.Random(seed)
        while True:
            kinds = list(SWEEP_TYPES)
            rng.shuffle(kinds)
            yield [self.make(rng, k) for k in kinds]

    def prepare(self, spec):
        grid = np.linspace(spec["lo"], spec["hi"], spec["n"])
        if not spec["kind"].startswith("mdr1"):
            grid = tuple(float(x) for x in grid)  # SweepSpec takes a tuple, as the CLI builds it
        return spec, grid, system_params(self.rb, d=spec["d"], p_in=spec["p_in"])

    def run(self, inputs):
        spec, grid, params = inputs
        ex, emit = self.rb.explorer, self.rb.dataset.emit_dataset
        if spec["kind"].startswith("mdr1"):
            ds = ex.max_distance_vs_r1(spec["l"], REF["f"], grid, spec["kind"][5:], params=params)
        else:
            ds = ex.sweep(ex.SweepSpec(variable=spec["kind"], grid=grid, fixed=params))
        return emit(ds, "csv"), emit(ds, "json")

    def points(self, spec, out):
        return spec["n"]

    def check(self, spec, out):
        csv_bytes, json_bytes = out
        prov_c, sha_c = O.csv_digest(csv_bytes)
        prov_j, cols, flags, sha_j = O.json_dataset(json_bytes)
        want_cols, want_flags, prov, contig = expected_sweep(spec)
        if sha_c != sha_j or prov_c != prov_j or not O.provenance_ok(prov_j, prov):
            return False
        if flags != want_flags:
            return False
        got = {k: v for k, v in cols.items() if k != "contiguous"}
        if not O.columns_close(got, want_cols):
            return False
        if contig is not None:
            flagged, max_gap = contig
            c = np.asarray(cols["contiguous"])
            if np.any(c[flagged] != 0) or not np.all(np.isin(c, (0.0, 1.0))):
                return False
            return bool(np.all(O.contiguous_agrees(c[~flagged], max_gap[~flagged])))
        return True


def expected_sweep(spec):
    """Columns, flags, provenance and contiguity data by recomputation."""
    p = dict(REF, d=spec["d"], p_in=spec["p_in"])
    n, kind = spec["n"], spec["kind"]
    x = np.linspace(spec["lo"], spec["hi"], n)
    zeros = np.zeros(n)
    flags = np.full(n, "", dtype=object)
    fd = O.f_of_d(p["d"], p["a"], p["wavelength"], p["l"], p["r_out"], p["m_overlap"])
    stable_d = bool(O.stable_mask(p["l"], p["f"], p["r1"], p["r2"], p["d"]))
    chain = (p["eta_stored"], p["c"], p["a1"], p["b1"])
    contig = None
    if kind == "d":
        mask = O.stable_mask(p["l"], p["f"], p["r1"], p["r2"], x)
        fdx = O.f_of_d(x, p["a"], p["wavelength"], p["l"], p["r_out"], p["m_overlap"])
        ps, pb, po = O.ladder(p["p_in"], fdx, *chain)
        cols = {"d_m": x, "f_d": fdx, "P_beam_W": pb, "eta_trans": O.ratio(pb, ps),
                "P_out_W": po, "eta_all": O.ratio(po, p["p_in"])}
        for k in list(cols)[1:]:
            cols[k] = np.where(mask, cols[k], 0.0)
        flags[mask & (po == 0) & (p["p_in"] > 0)] = "below-threshold"
        flags[~mask] = "unstable"
    elif kind == "P_in":
        ps, pb, po = O.ladder(x, fd, *chain)
        cols = {"P_in_W": x, "P_stored_W": ps, "P_beam_W": pb, "P_out_W": po, "eta_all": O.ratio(po, x)}
        flags[(po == 0) & (x > 0)] = "below-threshold"
    elif kind == "P_stored":
        pb = np.maximum(0.0, fd * x + p["c"])
        cols = {"P_stored_W": x, "f_d": zeros + fd, "P_beam_W": pb, "eta_trans": O.ratio(pb, x)}
        flags[pb == 0] = "below-threshold"
        flags[x == 0] = "undefined-at-zero"
    elif kind == "P_beam":
        ppv = np.maximum(0.0, p["a1"] * x + p["b1"])
        cols = {"P_beam_W": x, "P_pv_W": ppv, "eta_pv": O.ratio(ppv, x)}
        flags[ppv == 0] = "below-threshold"
        flags[x == 0] = "undefined-at-zero"
    else:
        if kind == "R1":
            r2 = p["r2"]
            g1, g2 = O.g_params(p["l"], p["f"], x, r2, p["d"])
            mask = O.stable_mask(p["l"], p["f"], x, r2, p["d"])
        else:
            p["l"] = spec["l"]
            r2 = O.connecting_r2(p["l"], p["f"], x, kind[5:])
        d_max, status, gap = O.reach(p["l"], p["f"], x, r2)
        flags[status == 1] = "no-stable-region"
        flags[status == 2] = "unbounded"
        flagged = status != 0
        if kind == "R1":
            cols = {"R1_m": x, "g1": g1, "g2": zeros + g2, "stable": mask.astype(float)}
        else:
            cols = {"R1_m": x, "R2_m": r2}
        cols["d_max_m"] = np.where(flagged, 0.0, d_max)
        contig = flagged, gap
    if kind in ("P_in", "P_stored") and not stable_d:
        cols = {k: (v if i == 0 else zeros) for i, (k, v) in enumerate(cols.items())}
        flags[:] = "unstable"
    if kind.startswith("mdr1"):
        prov = expected_provenance(p, variable="R1", branch=kind[5:], points=n)
    else:
        prov = expected_provenance(p, variable=kind, points=n)
    return cols, list(flags), prov, contig


# ---------------------------------------------------------------------------
# design-solve

# One block: one call of each solver and of each kernel they lean on.
DESIGN_KINDS = ("r1_range", "calibrate", "required_pin", "intervals", "max_distance", "mode_loss")
R1_SCAN_POINTS = 200    # the library's coarse scan, which inputs must not outwit
R1_CHECK_POINTS = 2001  # fine grid of the independent recomputation
GEOMETRY_BATCH = 512    # random connected designs drawn and solved per numpy call
PROBES = 64             # distances at which stable intervals are checked


class DesignSolve(Workload):
    """Small latency-bound solver and kernel calls, one at a time."""

    name = "design-solve"
    tail_per_kind = True  # about 1500 calls of each kind per run
    trace_blocks = 300

    def setup(self):
        self.params = system_params(self.rb)
        warm_up(self, next(self.blocks(0)))

    def blocks(self, seed):
        rng = random.Random(seed)
        designs = {k: connected_designs(rng, k == "max_distance") for k in ("intervals", "max_distance")}
        kinds = list(DESIGN_KINDS)
        while True:
            rng.shuffle(kinds)
            yield [self.make(rng, k, designs) for k in kinds]

    def make(self, rng, kind, designs):
        u = rng.uniform
        if kind == "r1_range":
            while True:
                spec = {"kind": kind, "target": u(2.0, 12.0), "l": u(0.05, 0.10),
                        "f": u(0.8, 0.95), "branch": rng.choice(["origin", "tangent"]),
                        "lo": u(-1.6, -1.2), "hi": u(-0.7, -0.45)}
                want = r1_intervals(spec, R1_CHECK_POINTS)
                # nonempty, and no feature narrower than the library's coarse scan
                if want and len(want) == len(r1_intervals(spec, R1_SCAN_POINTS)):
                    return dict(spec, want=want)
        if kind == "calibrate":
            while True:
                d, ps, delta = u(0.5, 10.0), u(40.0, 80.0), u(0.02, 0.6)
                fd = O.f_of_delta(delta, REF["r_out"], REF["m_overlap"])
                eta = fd + REF["c"] / ps
                if eta > 0.02:
                    return {"kind": kind, "d": d, "p_stored": ps, "eta": eta}
        if kind == "required_pin":
            return {"kind": kind, "target": u(0.5, 20.0), "d": u(0.2, 10.3)}
        if kind == "mode_loss":
            spot = u(3e-4, 3e-3)
            return {"kind": kind, "m": rng.randint(0, 5), "n": rng.randint(0, 5),
                    "a": u(0.1, 4.0) * spot, "spot": spot}
        spec = dict(next(designs[kind]), kind=kind)
        if kind == "intervals":
            spec.update(d_limit=u(5.0, 40.0), probe=rng.getrandbits(32))
        return spec

    def prepare(self, spec):
        if spec["kind"] in ("intervals", "max_distance"):
            geom = self.rb.CavityGeometry(l=spec["l"], f=spec["f"], r1=spec["r1"], r2=spec["r2"])
            return spec, geom
        return spec, None

    def run(self, inputs):
        spec, geom = inputs
        rb, k = self.rb, spec["kind"]
        if k == "r1_range":
            return rb.explorer.r1_range_for_distance(
                spec["target"], spec["l"], spec["f"], spec["branch"], (spec["lo"], spec["hi"]))
        if k == "calibrate":
            return rb.explorer.calibrate_aperture(spec["d"], spec["p_stored"], spec["eta"], self.params)
        if k == "required_pin":
            return rb.explorer.required_input_power(spec["target"], spec["d"], self.params)
        if k == "mode_loss":
            return rb.diffraction.mode_diffraction_loss(spec["m"], spec["n"], spec["a"], spec["spot"])
        if k == "intervals":
            return rb.cavity.stable_distance_intervals(geom, spec["d_limit"])
        return rb.cavity.max_transmission_distance(geom)

    def check(self, spec, out):
        k = spec["kind"]
        if k == "r1_range":
            tol = O.R1_EDGE_TOL + (spec["hi"] - spec["lo"]) / (R1_CHECK_POINTS - 1)
            return len(out) == len(spec["want"]) and all(
                abs(x - y) <= tol for a, b in zip(out, spec["want"]) for x, y in zip(a, b))
        if k == "calibrate":
            want = O.calibrated_aperture(spec["d"], spec["p_stored"], spec["eta"], REF)
            return abs(out - want) <= O.APERTURE_TOL
        if k == "required_pin":
            return O.close(out, float(O.required_pin(spec["target"], spec["d"], REF)))
        if k == "mode_loss":
            return abs(out - O.mode_loss(spec["m"], spec["n"], spec["a"] / spec["spot"])) <= O.MODE_LOSS_TOL
        if k == "intervals":
            geo = (spec["l"], spec["f"], spec["r1"], spec["r2"])
            return intervals_ok(geo, spec["d_limit"], list(out), spec["probe"])
        return (O.close(out.d_max, spec["d_max"], rel=O.ROOT_REL_TOL)
                and bool(O.contiguous_agrees(out.contiguous, spec["max_gap"])))


def connected_designs(rng: random.Random, bounded: bool):
    """Endless random connected-branch designs with their solved reach.

    Drawn and solved GEOMETRY_BATCH at a time; with ``bounded`` only designs
    with a finite, nonempty stable range are kept.
    """
    gen = np.random.default_rng(rng.getrandbits(64))
    while True:
        n = GEOMETRY_BATCH
        l, f, r1 = gen.uniform(0.04, 0.12, n), gen.uniform(0.3, 2.0, n), gen.uniform(-2.0, -0.5, n)
        origin = gen.random(n) < 0.5
        c0 = 1.0 - l / f
        ok = (np.abs(c0) > 1e-3) & (np.abs(1.0 / f + c0 / r1) > 1e-3)
        r2 = np.where(origin, O.connecting_r2(l, f, r1, "origin"), O.connecting_r2(l, f, r1, "tangent"))
        d_max, status, gap = O.reach(l, f, r1, r2)
        if bounded:
            ok &= status == 0
        for i in np.flatnonzero(ok):
            yield {"l": float(l[i]), "f": float(f[i]), "r1": float(r1[i]), "r2": float(r2[i]),
                   "d_max": float(d_max[i]), "max_gap": float(gap[i])}


def reaches(spec, r1):
    r2 = O.connecting_r2(spec["l"], spec["f"], r1, spec["branch"])
    d_max, status, _ = O.reach(spec["l"], spec["f"], r1, r2)
    return (status == 2) | ((status == 0) & (d_max >= spec["target"]))


def r1_intervals(spec, points):
    """R1 intervals reaching the target, edges placed between grid samples."""
    grid = np.linspace(spec["lo"], spec["hi"], points)
    hits = reaches(spec, grid)
    flips = np.flatnonzero(np.diff(hits.astype(np.int8)))
    edges = [float(grid[0])] if hits[0] else []
    edges += [float(0.5 * (grid[i] + grid[i + 1])) for i in flips]
    if hits[-1]:
        edges.append(float(grid[-1]))
    return list(zip(edges[::2], edges[1::2]))


def intervals_ok(geo, d_limit, out, probe_seed) -> bool:
    """Stable intervals agree with the pointwise mask; edges are true boundaries."""
    edges = [e for iv in out for e in iv]
    if edges != sorted(edges) or any(not 0 <= e <= d_limit for e in edges):
        return False
    inner = np.array([e for e in edges if 0 < e < d_limit])
    probes = np.random.default_rng(probe_seed).uniform(0.0, d_limit, PROBES)
    if inner.size:
        g1, g2 = O.g_params(*geo, inner)
        gg = g1 * g2
        if not np.all((np.abs(gg) < 1e-8) | (np.abs(gg - 1.0) < 1e-8)):
            return False
        near = np.min(np.abs(probes[:, None] - inner[None, :]), axis=1) <= 1e-6 * np.maximum(1.0, probes)
        probes = probes[~near]
    inside = np.zeros(probes.shape, dtype=bool)
    for lo, hi in out:
        inside |= (probes > lo) & (probes < hi)
    return bool(np.array_equal(inside, O.stable_mask(*geo, probes)))


WORKLOADS = {w.name: w for w in (CliCold, SweepGrid, DesignSolve)}
