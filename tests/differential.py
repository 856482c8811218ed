"""Differential harness: the connected-branch routes against the exact oracles.

Not a test module (no test_ prefix, no tier-1 hook): a report that a change
quotes before and after, as a speed claim quotes the benchmark.  It draws
designs in the bands where rounding decides the answer and checks each
route against tests/oracles.py, which works in Fractions:

* ``connecting_r2``: refusals of designs that exist exactly, and the error
  of rho2 = 1/r2 against the exact design's;
* ``_design`` (rows): refusals, wrong ``found`` and the error of d_max
  against ``exact_branch_reach``, in units of the exact d_max + |d1|;
* ``_supremum`` (rows, and columns bit for bit) on the printed r2, and on
  designs with an element within 3 ULPs of l: wrong ``found`` and the error
  of d_max against ``exact_reach`` of that float design; near l also the
  slivers, sets under 1e-15 m read where the exact set is empty; at tiny
  |R1| also the wrong ``found`` where the exact set is narrower than 2^-52
  of its end;
* ``stable_distance_intervals`` on the same designs as ``_supremum``, with
  d_limit past the last finite end of the exact set: interval counts and
  edge errors against the pieces of ``exact_reach``, clipped to d_limit, in
  units of max(edge, l); the counts that differ only by exact gaps narrower
  than 2^-52 of their edge, which the float set closes; and the designs
  where its last end, or whether it is empty, differs from the rows'
  ``_supremum``;
* ``r1_range_for_distance``: interval counts and edge errors against
  ``exact_r1_range``;
* ``required_input_power`` round trip: on seeded links at a stable
  distance, p_in = required_input_power(target) and the p_out that
  ``end_to_end`` gives at p_in, against the target; the targets no finite
  input reaches, and the error of p_out in ULPs of the target.

Bands: R1 within 64 ULPs of l - f; R1 within 1e-12*max(1, |l - f|) of it;
generic connected designs on their printed r2; R1, f, or r2 with flat optics
within 3 ULPs of l, where a root of g1, g2 or g1*g2 = 1 lies at d = 0 to
rounding; |R1| log-uniform in [1e-310, 1e-50] m, where 1/R1 may overflow;
R1 searches; the power round trip.  Run from the repository root:

    PYTHONPATH=src python tests/differential.py --seed 32 --n 2000 --out DIFF_32.json

The report holds no timings, so two trees that give the same answers write
the same bytes; ``answers_sha256`` digests every answer of a route.  With
``--compare DIFF_<prev>.json`` it also lists on stderr, as
``band/route/field: old -> new``, every leaf that moved or is in one report
only, and exits 1 if any did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from resbeam import (  # noqa: E402
    BRANCHES,
    CavityGeometry,
    EmptyResultError,
    GainParams,
    PvParams,
    ResbeamError,
    UnreachableTargetError,
    cavity,
    connecting_r2,
    end_to_end,
    r1_range_for_distance,
    reference_defaults,
    required_input_power,
    stable_distance_intervals,
)

QUANTILES = (0.5, 0.9, 0.99, 1.0)


def stepped(x: float, k: int) -> float:
    """x moved k ULPs, toward +inf for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def lens(rng: random.Random) -> tuple[float, float]:
    """l in [0.01, 0.3] m and f = +-10^U[-2, 1] m."""
    return rng.uniform(0.01, 0.3), math.copysign(10.0 ** rng.uniform(-2.0, 1.0), rng.random() - 0.5)


def near_ulps(rng):
    l, f = lens(rng)
    return l, f, stepped(l - f, rng.randint(-64, 64)) or math.inf


def near_relative(rng):
    l, f = lens(rng)
    return l, f, (l - f) + rng.uniform(-1.0, 1.0) * 1e-12 * max(1.0, abs(l - f))


def printed(rng):
    l, f = lens(rng)
    return l, f, math.copysign(10.0 ** rng.uniform(-2.0, 0.5), rng.random() - 0.5)


DESIGN_BANDS = {"l-f-64ulp": near_ulps, "l-f-1e-12": near_relative, "printed-r2": printed}


def tiny_r1(rng):
    l, f = lens(rng)
    return l, f, math.copysign(10.0 ** rng.uniform(-310.0, -50.0), rng.random() - 0.5)


def near_l(rng):
    """(l, f, r1, r2): R1, f, or r2 with flat f and R1, within 3 ULPs of l; the rest drawn."""
    l, f = lens(rng)
    r1, r2 = (math.copysign(10.0 ** rng.uniform(-2.0, 0.5), rng.random() - 0.5) for _ in "12")
    near = stepped(l, rng.randint(-3, 3))
    return ((l, f, near, r2), (l, near, r1, r2), (l, math.inf, math.inf, near))[rng.randrange(3)]


class Route:
    """Counts and error samples of one route in one band, and a digest of its answers."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.errors: list[float] = []
        self.digest = hashlib.sha256()

    def count(self, key: str, hit: bool = True) -> None:
        self.counts[key] = self.counts.get(key, 0) + bool(hit)

    def error(self, err: float, over: float) -> None:
        self.errors.append(err)
        self.count(f"error_over_{over:g}", err > over)

    def answer(self, *values) -> None:
        self.digest.update(repr([v.hex() if isinstance(v, float) else v for v in values]).encode())

    def report(self, error: str) -> dict:
        errs = sorted(self.errors)
        quantiles = {f"q{round(100 * q)}": float(f"{errs[min(len(errs) - 1, int(q * len(errs)))]:.4g}")
                     for q in QUANTILES} if errs else None
        return {**dict(sorted(self.counts.items())), error: quantiles,
                "answers_sha256": self.digest.hexdigest()}


def relative(got: float, exact: Fraction, scale: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / scale)


def design_band(draw, rng: random.Random, n: int, narrow: bool = False) -> dict:
    conn, design = Route(), Route()
    printed_designs = []
    for _ in range(n):
        l, f, r1 = draw(rng)
        branch = rng.choice(BRANCHES)
        exact = oracles.exact_branch_reach(l, f, r1, branch)
        exists = exact is not None
        for route in (conn, design):
            route.count("designs")
            route.count("exist_exactly", exists)

        try:
            r2 = connecting_r2(l, f, r1, branch)
        except ResbeamError as exc:
            r2 = type(exc).__name__
        conn.answer(r2)
        solved = not isinstance(r2, str)
        conn.count("refused_but_exists", exists and not solved)
        conn.count("solved_but_absent", solved and not exists)
        if solved:
            printed_designs.append((l, f, r1, r2))
        if solved and exists:
            phi, inv_r1 = oracles._exact_inv(f), oracles._exact_inv(r1)
            c0 = 1 - Fraction(l) * phi
            rho2 = (1 if branch == "origin" else -1) * c0 * (phi + c0 * inv_r1)
            got = 1 / Fraction(r2)
            conn.count("rho2_wrong_sign", (got > 0) != (rho2 > 0))
            conn.error(float(abs(got - rho2) / abs(rho2)), 1e-12)

        r2_row, d_max, ok, found = cavity._design(l, f, r1, branch, cavity._pick)
        design.answer(r2_row, d_max, bool(ok), bool(found))
        design.count("refused_but_exists", exists and not ok)
        design.count("solved_but_absent", ok and not exists)
        if ok and exists:
            exact_d, exact_found = exact
            design.count("wrong_found", bool(found) != exact_found)
            if found and exact_found:
                scale = exact_d + abs(oracles.exact_d1(l, f))
                design.error(relative(d_max, exact_d, scale), 1e-15)

    return {"connecting_r2": conn.report("rho2_rel_error"),
            "_design": design.report("d_max_error_of_d_max_plus_d1"),
            "_supremum": supremum_route(printed_designs, narrow=narrow).report("d_max_rel_error"),
            "stable_distance_intervals": intervals_route(printed_designs)}


def supremum_route(designs: list, slivers: bool = False, narrow: bool = False) -> Route:
    """The generic reach on each design, rows and columns, against exact_reach; with
    slivers, also the stable sets under 1e-15 m it reads where the exact set is empty;
    with narrow, also the wrong found where the exact set is narrower than 2^-52 of its end."""
    reach = Route()
    if designs:
        with np.errstate(all="ignore"):
            col_d, col_contiguous, col_found = cavity._supremum(
                *map(np.array, zip(*designs)), np.where, np.sqrt)
    for i, (l, f, r1, r2) in enumerate(designs):
        d_max, contiguous, found = cavity._supremum(l, f, r1, r2, cavity._pick, math.sqrt)
        reach.answer(d_max, bool(contiguous), bool(found))
        reach.count("designs")
        reach.count("rows_differ_from_columns",
                    (d_max.hex(), bool(contiguous), bool(found))
                    != (float(col_d[i]).hex(), bool(col_contiguous[i]), bool(col_found[i])))
        stable = oracles.exact_reach(l, f, r1, r2)
        reach.count("wrong_found", bool(found) != bool(stable))
        if slivers:
            reach.count("sliver_under_1e-15_where_empty", found and not stable and d_max < 1e-15)
        if narrow:  # a nonempty exact set, narrower than 2^-52 of its finite end
            end = stable[-1][1] if stable else math.inf
            thin = end != math.inf and (end - stable[0][0]) * 2 ** 52 < end
            reach.count("wrong_found_on_set_under_2^-52_of_end", thin and not found)
        if found and stable and stable[-1][1] != math.inf and math.isfinite(d_max):
            end = stable[-1][1]
            reach.error(relative(d_max, end, end), 1e-9)
    return reach


def intervals_route(designs: list) -> dict:
    """The report of stable_distance_intervals on each design against the pieces of
    exact_reach, with d_limit past the last finite end of the exact set (1 m at least),
    and of its last end against the rows' _supremum."""
    route = Route()
    for l, f, r1, r2 in designs:
        route.count("designs")
        stable = oracles.exact_reach(l, f, r1, r2)
        last = max((e for piece in stable for e in piece if e != math.inf), default=0)
        d_limit = float(min(max(2 * last, Fraction(1)), Fraction(sys.float_info.max)))
        try:
            got = stable_distance_intervals(CavityGeometry(l, f, r1, r2), d_limit).intervals
        except ResbeamError as exc:
            route.count("refused")
            route.answer(type(exc).__name__)
            continue
        route.answer(d_limit, *(e for interval in got for e in interval))
        want = [(lo, min(hi, Fraction(d_limit))) for lo, hi in stable if lo < d_limit]
        route.count("interval_count_differs", len(got) != len(want))
        # gaps of the exact set narrower than 2^-52 of their edge, which floats cannot hold
        thin = sum((b[0] - a[1]) * 2 ** 52 < b[0] for a, b in zip(want, want[1:]))
        route.count("count_differs_by_gaps_under_2^-52", thin and len(got) == len(want) - thin)
        if len(got) == len(want):
            for interval, exact in zip(got, want):
                for e, w in zip(interval, exact):
                    route.error(relative(e, w, max(abs(w), Fraction(l))), 1e-9)
        d_max, _, found = cavity._supremum(l, f, r1, r2, cavity._pick, math.sqrt)
        route.count("differs_from_supremum_rows", bool(got) != bool(found) or (
            bool(got) and got[-1][1] != min(d_max, d_limit)))
    return route.report("edge_error_of_max_edge_l")


def r1_search_band(rng: random.Random, n: int) -> dict:
    route = Route()
    for _ in range(n):
        l, f = lens(rng)
        branch = rng.choice(BRANCHES)
        target = 10.0 ** rng.uniform(-1.0, 1.5)
        if rng.random() < 0.5:  # a window around l - f
            half = 10.0 ** rng.uniform(-12.0, -1.0) * max(1.0, abs(l - f))
            lo, hi = (l - f) - half, (l - f) + half
        else:
            lo = rng.uniform(-3.0, 3.0)
            hi = lo + 10.0 ** rng.uniform(-3.0, 0.6)
        try:
            got = r1_range_for_distance(target, l, f, branch, (lo, hi))
        except EmptyResultError:
            got = []
        route.answer(*(e for interval in got for e in interval))
        exact = oracles.exact_r1_range(target, l, f, branch, lo, hi)
        route.count("searches")
        route.count("interval_count_differs", len(got) != len(exact))
        if len(got) == len(exact):
            for interval, want in zip(got, exact):
                for e, w in zip(interval, want):
                    route.error(relative(e, w, max(abs(w), Fraction(l))), 1e-15)
    return {"r1_range_for_distance": route.report("edge_error_of_max_edge_l")}


def stable_link(rng: random.Random):
    """A seeded link at a distance inside its stable set: a geometry with a stable distance
    short of 100 m (its r2 drawn, or a connected design's), and gain, PV and aperture drawn
    around the reference."""
    u = rng.uniform
    while True:
        l, f = lens(rng)
        r1 = math.copysign(10.0 ** u(-2.0, 0.5), rng.random() - 0.5)
        try:
            r2 = (connecting_r2(l, f, r1, rng.choice(BRANCHES)) if rng.random() < 0.5
                  else math.copysign(10.0 ** u(-2.0, 0.5), rng.random() - 0.5))
            geom = CavityGeometry(l, f, r1, r2)
        except ResbeamError:
            continue
        stable = stable_distance_intervals(geom, 100.0).intervals
        if stable:
            lo, hi = rng.choice(stable)
            d = lo + u(0.01, 0.99) * (hi - lo)
            break
    gain = GainParams(u(0.1, 0.9), 10.0 ** u(-1.0, 0.5), u(-10.0, 2.0), u(0.5, 0.99))
    return reference_defaults()._replace(
        geometry=geom, gain=gain, pv=PvParams(u(0.1, 0.9), u(-3.0, 1.0)),
        aperture_radius=10.0 ** u(-4.0, -2.0), wavelength=10.0 ** u(-7.0, -5.0), d=d)


def round_trip_band(rng: random.Random, n: int) -> dict:
    """required_input_power against end_to_end: p_out at the p_in solved for a target."""
    route = Route()
    for _ in range(n):
        p = stable_link(rng)
        target = 10.0 ** rng.uniform(-2.0, 2.0)
        route.count("targets")
        try:
            p_in = required_input_power(target, p.d, p)
        except UnreachableTargetError:
            route.count("unreachable")
            route.answer("UnreachableTargetError")
            continue
        p_out = end_to_end(p_in, p.d, p)[0].p_out
        route.answer(p_in, p_out)
        route.error(abs(p_out - target) / math.ulp(target), 4)
    report = route.report("p_out_error_ulps_of_target")
    reached = report["targets"] - report.get("unreachable", 0)
    share = report.get("error_over_4", 0) / max(1, reached)
    return {"required_input_power": {**report, "share_over_4_ulps": float(f"{share:.4g}")}}


def run(seed: int, n: int) -> dict:
    bands = {}
    for i, (name, draw) in enumerate(DESIGN_BANDS.items()):
        bands[name] = design_band(draw, random.Random(f"{seed}-{i}"), n)
    rng = random.Random(f"{seed}-near-l")  # its own stream: the bands above draw as before
    designs = [near_l(rng) for _ in range(n)]
    bands["l-3ulp"] = {"_supremum": supremum_route(designs, slivers=True).report("d_max_rel_error"),
                       "stable_distance_intervals": intervals_route(designs)}
    bands["tiny-r1"] = design_band(tiny_r1, random.Random(f"{seed}-tiny-r1"), n, narrow=True)
    bands["r1-search"] = r1_search_band(random.Random(f"{seed}-search"), n)
    bands["round-trip"] = round_trip_band(random.Random(f"{seed}-round-trip"), n)
    return {"seed": seed, "n": n, "bands": bands}


def leaves(tree, path: str = "") -> dict:
    """{"band/route/field": value} of every leaf of a report's bands."""
    if not isinstance(tree, dict):
        return {path: tree}
    return {k: v for key, sub in tree.items()
            for k, v in leaves(sub, f"{path}/{key}" if path else key).items()}


def moved(old: dict, new: dict) -> list[str]:
    """Each leaf, the seed and n too, that differs or is in one report only: "path: old -> new"."""
    a, b = ({"seed": r["seed"], "n": r["n"], **leaves(r["bands"])} for r in (old, new))
    absent = "(absent)"
    return [f"{k}: {a.get(k, absent)} -> {b.get(k, absent)}"
            for k in sorted(a.keys() | b.keys()) if a.get(k, absent) != b.get(k, absent)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=2000, help="draws per band")
    parser.add_argument("--out", type=Path, help="write the JSON report here (default: stdout)")
    parser.add_argument("--compare", type=Path, metavar="DIFF_PREV.json",
                        help="list on stderr every leaf that moved from this report; exit 1 if any")
    args = parser.parse_args(argv)
    report = run(args.seed, args.n)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    if args.compare is None:
        return 0
    lines = moved(json.loads(args.compare.read_text()), report)
    sys.stderr.write("".join(f"{line}\n" for line in lines))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
