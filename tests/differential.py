"""Differential harness: the connected-branch routes against the exact oracles.

Not a test module (no test_ prefix, no tier-1 hook): a report that a change
quotes before and after, as a speed claim quotes the benchmark.  It draws
designs in the bands where rounding decides the answer and checks each
route against tests/oracles.py, which works in Fractions:

* ``connecting_r2``: refusals of designs that exist exactly, and the error
  of rho2 = 1/r2 against the exact design's;
* ``_design`` (rows): refusals, wrong ``found`` and the error of d_max
  against ``exact_branch_reach``, in units of the exact d_max + |d1|;
* ``_supremum`` (rows, and columns bit for bit) on the printed r2: wrong
  ``found`` and the error of d_max against ``exact_reach`` of that float
  design;
* ``r1_range_for_distance``: interval counts and edge errors against
  ``exact_r1_range``.

Bands: R1 within 64 ULPs of l - f; R1 within 1e-12*max(1, |l - f|) of it;
generic connected designs on their printed r2; R1 searches.  Run from the
repository root:

    PYTHONPATH=src python tests/differential.py --seed 32 --n 2000 --out DIFF_32.json

The report holds no timings, so two trees that give the same answers write
the same bytes; ``answers_sha256`` digests every answer of a route.
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
    EmptyResultError,
    ResbeamError,
    cavity,
    connecting_r2,
    r1_range_for_distance,
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


def design_band(draw, rng: random.Random, n: int) -> dict:
    conn, design, reach = Route(), Route(), Route()
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

    # the generic reach on each printed r2, rows and columns
    if printed_designs:
        with np.errstate(all="ignore"):
            col_d, col_contiguous, col_found = cavity._supremum(
                *map(np.array, zip(*printed_designs)), np.where, np.sqrt)
    for i, (l, f, r1, r2) in enumerate(printed_designs):
        d_max, contiguous, found = cavity._supremum(l, f, r1, r2, cavity._pick, math.sqrt)
        reach.answer(d_max, bool(contiguous), bool(found))
        reach.count("designs")
        reach.count("rows_differ_from_columns",
                    (d_max.hex(), bool(contiguous), bool(found))
                    != (float(col_d[i]).hex(), bool(col_contiguous[i]), bool(col_found[i])))
        stable = oracles.exact_reach(l, f, r1, r2)
        reach.count("wrong_found", bool(found) != bool(stable))
        if found and stable and stable[-1][1] != math.inf and math.isfinite(d_max):
            end = stable[-1][1]
            reach.error(relative(d_max, end, end), 1e-9)

    return {"connecting_r2": conn.report("rho2_rel_error"),
            "_design": design.report("d_max_error_of_d_max_plus_d1"),
            "_supremum": reach.report("d_max_rel_error")}


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


def run(seed: int, n: int) -> dict:
    bands = {}
    for i, (name, draw) in enumerate(DESIGN_BANDS.items()):
        bands[name] = design_band(draw, random.Random(f"{seed}-{i}"), n)
    bands["r1-search"] = r1_search_band(random.Random(f"{seed}-search"), n)
    return {"seed": seed, "n": n, "bands": bands}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=2000, help="draws per band")
    parser.add_argument("--out", type=Path, help="write the JSON report here (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(run(args.seed, args.n), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
