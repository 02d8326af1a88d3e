"""Seeded benchmark inputs: heavy-tailed Chung-Lu graphs and skewed partitions.

Inputs are made with numpy's PCG64 generator only, never with
``modnull.generators``, so a deliberate change to the package's own
generators cannot alter what the benchmark feeds the program.  The same
seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def chung_lu(rng: np.random.Generator, n: int, m: int, tail: float, kcap: float):
    """Simple graph with ``m`` edges and Pareto(``tail``) expected degrees.

    The expected degrees are the Pareto quantiles at (i + 1/2)/n, capped
    at ``kcap`` and spread over the vertex ids by a fixed golden-ratio
    stride.  Only the edges depend on the seed, so the degree sequence
    keeps its heavy tail while cost-setting statistics (sum of k^2, the
    lower-wedge count) barely move from seed to seed.

    Endpoints are drawn with probability proportional to the expected
    degree, self-loops and repeats are dropped, and the first ``m``
    distinct pairs in draw order are kept.  Returns (lo, hi) int64
    arrays sorted lexicographically.
    """
    stride = int(n * 0.6180339887) | 1
    while math.gcd(stride, n) != 1:
        stride += 2
    w = np.empty(n)
    w[np.arange(n) * stride % n] = ((np.arange(n) + 0.5) / n) ** (-1.0 / tail)
    w = np.minimum(w / w.mean() * (2.0 * m / n), kcap)
    p = w / w.sum()
    lo = np.empty(0, dtype=np.int64)
    hi = np.empty(0, dtype=np.int64)
    draw = int(m * 1.3) + 64
    while lo.size < m:
        a = rng.choice(n, size=draw, p=p)
        b = rng.choice(n, size=draw, p=p)
        lo = np.concatenate([lo, np.minimum(a, b)])
        hi = np.concatenate([hi, np.maximum(a, b)])
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
        _, first = np.unique(lo * n + hi, return_index=True)
        first.sort()
        lo, hi = lo[first], hi[first]
    lo, hi = lo[:m], hi[:m]
    order = np.lexsort((hi, lo))
    return lo[order], hi[order]


def dirichlet_partition(rng: np.random.Generator, n: int, k: int, alpha: float) -> np.ndarray:
    """Colors 1..k with Dirichlet(alpha)-sized classes, every class non-empty."""
    share = rng.dirichlet(np.full(k, alpha))
    sizes = 1 + np.floor(share * (n - k)).astype(np.int64)
    sizes[np.argmax(sizes)] += n - sizes.sum()
    colors = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes)
    return rng.permutation(colors)


def edge_list_text(n: int, lo: np.ndarray, hi: np.ndarray) -> bytes:
    body = "\n".join(f"{u} {v}" for u, v in zip(lo.tolist(), hi.tolist()))
    return f"# n={n}\n{body}\n".encode()


def partition_text(colors: np.ndarray) -> bytes:
    return ("\n".join(map(str, colors.tolist())) + "\n").encode()


def lower_wedges(n: int, lo: np.ndarray, hi: np.ndarray) -> int:
    """Wedges i < l < j through their largest vertex j: sum_j C(lower degree, 2)."""
    below = np.bincount(hi, minlength=n).astype(np.int64)
    return int(np.sum(below * (below - 1) // 2))


def fingerprint(n: int, lo: np.ndarray, hi: np.ndarray, files: dict[str, Path]) -> dict:
    """sha256 of each written file plus the degree statistics that set the cost."""
    deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    out = {
        "n": n,
        "m": int(lo.size),
        "kmax": int(deg.max()),
        "sum_k2": int(np.sum(deg.astype(np.int64) ** 2)),
        "lower_wedges": lower_wedges(n, lo, hi),
    }
    for name, path in files.items():
        out[f"sha256_{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def make_graph(workdir: Path, name: str, seed: int, n: int, m: int, tail: float,
               kcap: float, colors: int = 0, alpha: float = 0.5) -> dict:
    """Write ``<name>.txt`` (and ``<name>.part`` when ``colors``) and return a record.

    The record holds the arrays the checks need and the fingerprint that
    goes into the result.
    """
    rng = np.random.default_rng(seed)
    lo, hi = chung_lu(rng, n, m, tail, kcap)
    files = {"graph": workdir / f"{name}.txt"}
    files["graph"].write_bytes(edge_list_text(n, lo, hi))
    rec = {"n": n, "lo": lo, "hi": hi, "files": files}
    if colors:
        part = dirichlet_partition(rng, n, colors, alpha)
        files["partition"] = workdir / f"{name}.part"
        files["partition"].write_bytes(partition_text(part))
        rec["colors"] = part
    rec["fingerprint"] = fingerprint(n, lo, hi, files)
    return rec
