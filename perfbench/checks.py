"""Output checks by independent recomputation.

Nothing here compares stored bytes: later changes may move low bits on
purpose.  Moments are recomputed in exact rational arithmetic from the
degree sequence and the color frequencies, Q from the edge arrays in
exact integers, KS and p-values with ``math.erfc``.  Only the coloring
of a replicate comes from the package, through its public
``ColorDistribution.sample_coloring`` and ``stream_seed``.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Float closed forms against exact rationals on sparse graphs; the
# README's 1e-11 is kept with two digits of slack for cancellation.
TOL_MOMENT = 1e-9
# Q is two divisions of exact integers, so it agrees to rounding.
TOL_Q = 1e-12
# Martingale mean: allowed distance from its exact expectation 1, in
# standard errors of the sample mean.
MARTINGALE_SE = 6.0


def _degrees(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)


def exact_moments(n: int, lo: np.ndarray, hi: np.ndarray, probs: list[Fraction]) -> dict:
    """mu, sigma2, delta2 of Q from the README closed forms, in Fractions."""
    deg = _degrees(n, lo, hi)
    values, counts = np.unique(deg, return_counts=True)
    pairs = [(int(k), int(c)) for k, c in zip(values, counts)]
    s2 = sum(c * k ** 2 for k, c in pairs)
    s4 = sum(c * k ** 4 for k, c in pairs)
    m = int(lo.size)
    # int64 is exact while m * kmax^2 < 2^63; beyond that, Python ints.
    wide = object if m * int(deg.max()) ** 2 >= 2 ** 63 else np.int64
    skk = int(np.sum(deg[lo].astype(wide) * deg[hi].astype(wide)))
    p2 = sum(p ** 2 for p in probs)
    p3 = sum(p ** 3 for p in probs)
    r1 = p2 + p2 * p2 - 2 * p3
    r2 = p3 - p2 * p2
    offdiag = 2 * m - Fraction(2 * skk, m) + Fraction(s2 * s2 - s4, 4 * m * m)
    diag = Fraction(s4, 4 * m * m)
    return {
        "mu": -(1 - p2) * Fraction(s2, 4 * m * m),
        "sigma2": r1 / (2 * m * m) * offdiag + r2 / (m * m) * diag,
        "delta2": r1 / m,
    }


def frequencies(colors: np.ndarray) -> list[Fraction]:
    """Observed color frequencies, colors 1..max, as exact fractions."""
    counts = np.bincount(colors)[1:]
    return [Fraction(int(c), int(colors.size)) for c in counts]


def exact_q(n: int, lo: np.ndarray, hi: np.ndarray, colors: np.ndarray) -> float:
    """Q = within/m - sum_k d_k^2 / (4 m^2), from exact integer sums."""
    deg = _degrees(n, lo, hi)
    m = int(lo.size)
    within = int(np.count_nonzero(colors[lo] == colors[hi]))
    mass = np.bincount(colors, weights=deg).astype(np.int64)
    sumd2 = sum(int(x) * int(x) for x in mass)
    return float(Fraction(within, m) - Fraction(sumd2, 4 * m * m))


def normal_ks(z: np.ndarray) -> float:
    x = np.sort(z)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    i = np.arange(1, x.size + 1, dtype=np.float64)
    return float(max(np.max(i / x.size - cdf), np.max(cdf - (i - 1) / x.size)))


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _summary_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".summary.json")


def _floats_finite(rows: list[list[str]], cols: range) -> bool:
    return all(math.isfinite(float(r[c])) for r in rows for c in cols)


def check_null_sample(out: Path, graph: dict, reps: int, seed: int, probe: int = 3) -> list[str]:
    """CSV and summary of ``null-sample`` on a benchmark graph and partition."""
    from modnull import ColorDistribution
    from modnull.rng import stream_seed

    n, lo, hi, colors = graph["n"], graph["lo"], graph["hi"], graph["colors"]
    errs = []
    header, rows = _read_csv(out)
    if header != ["replicate", "q", "z"] or len(rows) != reps:
        return [f"null-sample: header {header} with {len(rows)} rows, expected {reps}"]
    if [int(r[0]) for r in rows] != list(range(reps)) or not _floats_finite(rows, range(1, 3)):
        errs.append("null-sample: replicate column or non-finite values")
    summary = json.loads(_summary_path(out).read_text())
    mom = exact_moments(n, lo, hi, frequencies(colors))
    sigma = math.sqrt(mom["sigma2"])
    for key, exact in (("mu", float(mom["mu"])), ("sigma", sigma),
                       ("delta", math.sqrt(mom["delta2"]))):
        if not close(summary[key], exact, TOL_MOMENT):
            errs.append(f"null-sample: {key} {summary[key]!r} vs exact {exact!r}")
    if (summary["n"], summary["m"]) != (n, int(lo.size)):
        errs.append("null-sample: n or m differs from the input")
    q = np.array([float(r[1]) for r in rows])
    z = np.array([float(r[2]) for r in rows])
    if not np.allclose(z, (q - float(mom["mu"])) / sigma, rtol=TOL_MOMENT, atol=TOL_MOMENT):
        errs.append("null-sample: z is not (q - mu) / sigma")
    dist = ColorDistribution.from_coloring(colors)
    for r in np.linspace(0, reps - 1, probe).astype(int).tolist():
        c = dist.sample_coloring(n, stream_seed(seed, r))
        if abs(exact_q(n, lo, hi, c) - q[r]) > TOL_Q:
            errs.append(f"null-sample: replicate {r} q {q[r]!r} vs recomputed")
    if not close(summary["mean"], float(np.mean(z)), 1e-12):
        errs.append("null-sample: mean differs from the CSV")
    if not close(summary["variance"], float(np.var(z, ddof=1)), 1e-12):
        errs.append("null-sample: variance differs from the CSV")
    if not close(summary["ks"], normal_ks(z), 1e-9):
        errs.append("null-sample: ks differs from the CSV")
    return errs


def check_test(out: Path, graph: dict) -> list[str]:
    """JSON report of ``test`` with observed frequencies, upper-sided, sigma."""
    n, lo, hi, colors = graph["n"], graph["lo"], graph["hi"], graph["colors"]
    rep = json.loads(out.read_text())
    errs = []
    mom = exact_moments(n, lo, hi, frequencies(colors))
    mu, sigma, delta = float(mom["mu"]), math.sqrt(mom["sigma2"]), math.sqrt(mom["delta2"])
    q = exact_q(n, lo, hi, colors)
    if abs(rep["Q"] - q) > TOL_Q:
        errs.append(f"test: Q {rep['Q']!r} vs recomputed {q!r}")
    for key, exact in (("mu", mu), ("sigma", sigma), ("delta", delta)):
        if not close(rep[key], exact, TOL_MOMENT):
            errs.append(f"test: {key} {rep[key]!r} vs exact {exact!r}")
    for key, z in (("z_sigma", (q - mu) / sigma), ("z_delta", (q - mu) / delta)):
        # z is O(1) and may sit near 0, so the tolerance is absolute there.
        if not abs(rep[key] - z) <= 1e-6 * max(1.0, abs(z)):
            errs.append(f"test: {key} {rep[key]!r} vs recomputed {z!r}")
    p = 0.5 * math.erfc(rep["z_sigma"] / math.sqrt(2.0))
    if not close(rep["p_value"], p, 1e-9):
        errs.append(f"test: p_value {rep['p_value']!r} vs {p!r}")
    cond = rep["conditions"]
    m = int(lo.size)
    kmax = int(_degrees(n, lo, hi).max())
    if (cond["n"], cond["m"], cond["kmax"]) != (n, m, kmax):
        errs.append("test: conditions n, m or kmax differ from the input")
    ratio = kmax / math.sqrt(m)
    stat_c1 = ratio * n ** 0.625 / math.log(n) ** 2.5
    if not close(cond["stat_31"], ratio * math.sqrt(n), 1e-12) or not close(
        cond["stat_c1"], stat_c1, 1e-12
    ):
        errs.append("test: condition statistics disagree with the degree sequence")
    if cond["holds_c1"] != (cond["stat_c1"] <= 1.0) or not cond["stat_311"] > 0.0:
        errs.append("test: holds_c1 or stat_311 invalid")
    return errs


def check_be_study(out: Path, sizes: list[int], seed: int, d: int) -> list[str]:
    from modnull.rng import stream_seed

    header, rows = _read_csv(out)
    if len(header) != 9 or len(rows) != len(sizes):
        return [f"be-study: {len(rows)} rows for {len(sizes)} sizes"]
    errs = []
    if not _floats_finite(rows, range(9)):
        errs.append("be-study: non-finite values")
    col = {name: i for i, name in enumerate(header)}
    for row, n in zip(rows, sizes):
        get = lambda key: float(row[col[key]])  # noqa: E731
        shape = n ** -0.25 * math.log(n)
        ks = get("ks")
        if int(row[col["n"]]) != n or int(row[col["m"]]) != n * d // 2:
            errs.append(f"be-study: n or m wrong in row n={n}")
        if int(row[col["seed_used"]]) != stream_seed(seed, n):
            errs.append(f"be-study: seed_used wrong in row n={n}")
        if not 0.0 < ks < 1.0 or ks != get("ks_delta"):
            errs.append(f"be-study: ks out of range or not the delta scaling at n={n}")
        if not close(get("bound_shape"), shape, 1e-12) or not close(
            get("fitted_C"), ks / shape, 1e-12
        ):
            errs.append(f"be-study: rate shape or fitted_C wrong at n={n}")
    summary = json.loads(_summary_path(out).read_text())
    if [s["n"] for s in summary["per_size"]] != sizes:
        errs.append("be-study: summary per_size does not list the sizes")
    return errs


def check_slln(out: Path, sizes: list[int], paths: int) -> list[str]:
    header, rows = _read_csv(out)
    if header != ["path", "n", "value"] or len(rows) != paths * len(sizes):
        return [f"slln-study: {len(rows)} rows, expected {paths * len(sizes)}"]
    errs = []
    expect = [[str(p), str(n)] for p in range(paths) for n in sizes]
    if [r[:2] for r in rows] != expect or not _floats_finite(rows, range(2, 3)):
        errs.append("slln-study: path/size grid wrong or non-finite values")
    summary = json.loads(_summary_path(out).read_text())
    per_path = summary["per_path"]
    if summary["paths"] != paths or len(per_path) != paths:
        errs.append("slln-study: path count wrong in summary")
    if summary["decayed_paths"] != sum(bool(s["decayed"]) for s in per_path):
        errs.append("slln-study: decayed_paths does not match per_path")
    return errs


def martingale_value(n: int, lo: np.ndarray, hi: np.ndarray, colors: np.ndarray,
                     probs: np.ndarray) -> float:
    """Normalized martingale conditional variance of one coloring, by definition.

    Vertices are revealed in id order.  Vertex j adds the variance, over
    its own color c ~ p, of the sum over lower neighbors i of the centered
    kernel h(c_i, c) = [c_i = c] - p_(c_i) - p_c + p_(2); that sum has
    conditional mean 0, so the variance is sum_c p_c s_c(j)^2.  The total
    is divided by m * r1, its expectation.
    """
    p2 = float(np.sum(probs ** 2))
    r1 = p2 + p2 * p2 - 2.0 * float(np.sum(probs ** 3))
    total = 0.0
    for c, pc in enumerate(probs, start=1):
        h = (colors[lo] == c) - probs[colors[lo] - 1] - pc + p2
        s = np.bincount(hi, weights=h, minlength=n)
        total += pc * float(np.sum(s * s))
    return total / (lo.size * r1)


def check_martingale(out: Path, reps: int, graph: dict, seed: int, probe: int = 3) -> list[str]:
    """Uniform K=2 martingale variances: values by definition, mean near 1."""
    from modnull import ColorDistribution
    from modnull.rng import stream_seed

    v2 = np.load(out)
    if v2.shape != (reps,) or not np.all(np.isfinite(v2)):
        return [f"martingale: shape {v2.shape} or non-finite values"]
    errs = []
    dist = ColorDistribution.uniform(2)
    for r in np.linspace(0, reps - 1, probe).astype(int).tolist():
        c = dist.sample_coloring(graph["n"], stream_seed(seed, r))
        exact = martingale_value(graph["n"], graph["lo"], graph["hi"], c, dist.p)
        if not close(float(v2[r]), exact, TOL_MOMENT):
            errs.append(f"martingale: replicate {r} {float(v2[r])!r} vs recomputed {exact!r}")
    se = float(np.std(v2, ddof=1)) / math.sqrt(reps)
    if abs(float(np.mean(v2)) - 1.0) > MARTINGALE_SE * se:
        errs.append(f"martingale: mean {float(np.mean(v2))!r} too far from 1 (se {se:.3g})")
    return errs
