"""Independent recomputation of resbeam outputs, and comparison helpers.

Nothing here imports resbeam.  Every check recomputes the physics through
its own route: stability straight from the g-parameter definitions,
boundaries from numpy root formulas, the power ladder and the aperture
calibration in closed form, and the Laguerre-Gauss mode loss as a finite
incomplete-gamma sum instead of adaptive quadrature.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Tolerances fixed by the benchmark's contract with the library.
R1_EDGE_TOL = 1e-3        # documented r1_range_for_distance resolution, m
APERTURE_TOL = 1e-9       # calibrate_aperture, m
MODE_LOSS_TOL = 1e-9      # mode_diffraction_loss, absolute
REL_TOL = 1e-12           # other scalar floats (allows ULP-level moves)
DATA_REL_TOL = 1e-9       # dataset values against this module's recomputation
ROOT_REL_TOL = 1e-7       # distances found as polynomial roots (cancellation-prone)


def inv(x):
    """1/x elementwise with +inf (flat) mapping to exactly 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(np.isinf(x), 0.0, 1.0 / np.where(np.isinf(x), 1.0, x))


def g_params(l, f, r1, r2, d):
    """(g1, g2) from the definitions g1 = 1 - d/f - L/r1, g2 = 1 - l/f - L/r2."""
    d = np.asarray(d, dtype=float)
    L = l + d - l * d * inv(f)
    return 1.0 - d * inv(f) - L * inv(r1), 1.0 - l * inv(f) - L * inv(r2)


def stable_mask(l, f, r1, r2, d):
    g1, g2 = g_params(l, f, r1, r2, d)
    gg = g1 * g2
    return (gg > 0.0) & (gg < 1.0)


def connecting_r2(l, f, r1, branch):
    """Receiver curvature of the origin (+) or tangent (-) connected design."""
    phi = inv(f)
    c0 = 1.0 - l * phi
    rho = c0 * (phi + c0 * inv(r1))
    return 1.0 / (rho if branch == "origin" else -rho)


def _boundaries(l, f, r1, r2):
    """Candidate d > 0 where g1*g2 crosses 0 or 1, shape (n, 4), NaN-padded.

    g1 and g2 are affine in d; their coefficients are read off two point
    evaluations rather than from closed-form expansions.
    """
    g1a, g2a = g_params(l, f, r1, r2, 0.0)
    g1b, g2b = g_params(l, f, r1, r2, 1.0)
    a1, b1 = np.atleast_1d(g1a), np.atleast_1d(g1b - g1a)
    a2, b2 = np.atleast_1d(g2a), np.atleast_1d(g2b - g2a)
    n = np.broadcast(a1, b1, a2, b2).shape
    with np.errstate(divide="ignore", invalid="ignore"):
        z1 = np.where(b1 != 0, -a1 / b1, np.nan)
        z2 = np.where(b2 != 0, -a2 / b2, np.nan)
        qa, qb, qc = b1 * b2, a1 * b2 + a2 * b1, a1 * a2 - 1.0
        disc = qb * qb - 4.0 * qa * qc
        s = np.sqrt(np.where(disc >= 0, disc, np.nan))
        quad = qa != 0
        u1 = np.where(quad, (-qb - s) / (2.0 * qa), np.where(qb != 0, -qc / qb, np.nan))
        u2 = np.where(quad, (-qb + s) / (2.0 * qa), np.nan)
    c = np.stack([np.broadcast_to(v, n) for v in (z1, z2, u1, u2)], axis=-1)
    c = np.where(np.isfinite(c) & (c > 0), c, np.nan)
    return np.sort(c, axis=-1)


# Gaps narrower than this share of their distance (at least 1 m) come from a
# double root split by rounding, which the library may merge or keep.
GAP_AMBIGUOUS = 1e-6


def reach(l, f, r1, r2):
    """Vectorised supremum of the stable distance set.

    Returns (d_max, status, max_gap): status 0 ok, 1 no stable region,
    2 unbounded; max_gap is the widest unstable gap between stable segments,
    relative to its distance (at least 1 m).
    """
    c = _boundaries(l, f, r1, r2)
    n = c.shape[0]
    pts = np.concatenate([np.zeros((n, 1)), c], axis=1)
    lo, hi = pts[:, :-1], pts[:, 1:]
    seg_ok = np.isfinite(hi) & (hi > lo)
    mid = np.where(seg_ok, 0.5 * (lo + hi), 1.0)
    cols = [np.broadcast_to(np.asarray(v, dtype=float), (n,))[:, None] for v in (l, f, r1, r2)]
    stable = seg_ok & stable_mask(*cols, mid)
    last = np.where(np.isfinite(c), c, 0.0).max(axis=1)
    beyond = stable_mask(*[x[:, 0] for x in cols], last + 1.0)
    d_max = np.max(np.where(stable, hi, 0.0), axis=1)
    status = np.where(beyond, 2, np.where(stable.any(axis=1), 0, 1))
    # widest gap between consecutive stable segments
    gap = np.zeros(n)
    prev_hi = np.full(n, np.nan)
    for k in range(stable.shape[1]):
        s = stable[:, k]
        g = np.where(s & np.isfinite(prev_hi),
                     (lo[:, k] - prev_hi) / np.maximum(1.0, prev_hi), 0.0)
        gap = np.maximum(gap, g)
        prev_hi = np.where(s, hi[:, k], prev_hi)
    return d_max, status, gap


def contiguous_agrees(reported, max_gap):
    """A reported contiguity flag is right unless the gap says otherwise clearly."""
    amb = (max_gap > 0) & (max_gap <= GAP_AMBIGUOUS)
    return amb | (np.asarray(reported, dtype=bool) == (max_gap == 0))


# ---------------------------------------------------------------------------
# Power chain


def f_of_delta(delta, r_out, m_overlap):
    """Stored-to-beam coefficient f for a round-trip diffraction loss delta."""
    return 2.0 * (1.0 - r_out) * m_overlap / ((1.0 + r_out) * (delta - math.log(r_out)))


def f_of_d(d, aperture, wavelength, l, r_out, m_overlap):
    delta00 = np.exp(-2.0 * math.pi * aperture**2 / (wavelength * (l + np.asarray(d))))
    return f_of_delta(delta00, r_out, m_overlap)


def ladder(p_in, fd, eta_stored, c, a1, b1):
    """Closed-form (p_stored, p_beam, p_out) with both thresholds clamped."""
    p_stored = eta_stored * np.asarray(p_in, dtype=float)
    p_beam = np.maximum(0.0, fd * p_stored + c)
    p_out = np.maximum(0.0, a1 * p_beam + b1)
    return p_stored, p_beam, p_out


def ratio(num, den):
    num, den = np.broadcast_arrays(np.asarray(num, float), np.asarray(den, float))
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=den > 0)
    return out


def calibrated_aperture(d, p_stored, eta, p):
    """Aperture giving stored-to-beam efficiency eta, by algebraic inversion."""
    target_f = eta - p["c"] / p_stored
    delta = 2.0 * (1.0 - p["r_out"]) * p["m_overlap"] / ((1.0 + p["r_out"]) * target_f)
    delta += math.log(p["r_out"])
    return math.sqrt(-math.log(delta) * p["wavelength"] * (p["l"] + d) / (2.0 * math.pi))


def required_pin(target, d, p):
    fd = f_of_d(d, p["a"], p["wavelength"], p["l"], p["r_out"], p["m_overlap"])
    return (target - p["a1"] * p["c"] - p["b1"]) / (p["a1"] * fd * p["eta_stored"])


def mode_loss(m, n, u):
    """Power fraction of LG(m, n) beyond r = u spot sizes, as a finite sum.

    With t = 2 r^2 / w^2 the radial power density is t^m [L_n^m(t)]^2 e^-t,
    whose tail integrates term by term to upper incomplete gamma functions of
    integer order.  Normalised by (n + m)! / n!.
    """
    if u <= 0:
        return 1.0
    t = 2.0 * u * u
    coef = [(-1) ** k * math.comb(n + m, n - k) / math.factorial(k) for k in range(n + 1)]
    sq = [0.0] * (2 * n + 1)
    for i, ci in enumerate(coef):
        for j, cj in enumerate(coef):
            sq[i + j] += ci * cj
    # tail of t^k e^-t from t to inf = k! e^-t sum_{i<=k} t^i / i!
    partial, term, tails = 0.0, 1.0, []
    for i in range(m + 2 * n + 1):
        if i:
            term *= t / i
        partial += term
        tails.append(math.factorial(i) * partial)
    total = sum(s * tails[m + j] for j, s in enumerate(sq)) * math.exp(-t)
    return total * math.factorial(n) / math.factorial(n + m)


# ---------------------------------------------------------------------------
# Comparison helpers


def close(a, b, rel=REL_TOL, abs_=1e-15):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)):
        return a == b
    if not isinstance(b, (int, float)):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def fmt9(x: float) -> str:
    """The dataset cell format: nine significant digits, inf spelled out."""
    if x == 0.0:
        x = 0.0
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".9g")


def render_body(columns: dict, flags: list) -> bytes:
    """CSV header and rows rendered from parsed dataset columns."""
    names = list(columns)
    lines = [",".join(names + ["flag"])]
    cols = [columns[k] for k in names]
    for i, fl in enumerate(flags):
        lines.append(",".join([fmt9(float(c[i])) for c in cols] + [fl]))
    return ("\n".join(lines) + "\n").encode()


def parse_csv(data: bytes):
    """(provenance, body) of a CSV dataset; provenance from the '#' lines."""
    text = data.decode()
    prov, rest = {}, text
    while rest.startswith("# "):
        line, _, rest = rest.partition("\n")
        key, _, value = line[2:].partition(" = ")
        prov[key] = value
    return prov, rest.encode()


def csv_digest(data: bytes):
    """(provenance, body_sha256) of a CSV dataset."""
    prov, body = parse_csv(data)
    return prov, hashlib.sha256(body).hexdigest()


def json_dataset(data: bytes):
    """(provenance, columns, flags, body_sha256) of a JSON dataset.

    The digest is that of the CSV rendering of the parsed values, so both
    formats compare against one reference digest.
    """
    obj = json.loads(data)
    cols, flags = obj["columns"], obj["flag"]
    return obj["provenance"], cols, flags, hashlib.sha256(render_body(cols, flags)).hexdigest()


def dataset_digest(data: bytes, fmt: str):
    """(provenance, body_sha256) of a dataset in either format."""
    if fmt == "csv":
        return csv_digest(data)
    prov, _, _, sha = json_dataset(data)
    return prov, sha


def provenance_ok(got: dict, expected: dict) -> bool:
    """Every expected key present with the same value; extra keys allowed."""
    return all(k in got and str(got[k]) == str(v) for k, v in expected.items())


def columns_close(got: dict, expected: dict, roots=("d_max_m",)) -> bool:
    """Same column names in order, values within tolerance of the column's scale."""
    if list(got) != list(expected):
        return False
    for k, want in expected.items():
        rel = ROOT_REL_TOL if k in roots else DATA_REL_TOL
        a = np.asarray(got[k], dtype=float)
        b = np.asarray(want, dtype=float)
        if a.shape != b.shape:
            return False
        fin = np.isfinite(b)
        if not np.array_equal(np.isfinite(a), fin) or not np.array_equal(a[~fin], b[~fin]):
            return False
        scale = np.max(np.abs(b[fin]), initial=1e-300)
        if np.any(np.abs(a[fin] - b[fin]) > rel * np.maximum(np.abs(b[fin]), scale * 1e-3)):
            return False
    return True
