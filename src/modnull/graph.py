"""Simple undirected graphs in adjacency-list form, plus degree statistics.

The edge-list text format is one edge per line (two whitespace-separated
0-based vertex ids), ``#`` comment lines, and an optional ``# n=<count>``
directive that declares the vertex count (the only way to get isolated
vertices).  Self-loops and repeated edges are rejected as data bugs, not
cleaned up silently.  The canonical writer emits the directive followed
by edges with ``u < v`` in lexicographic order, newline terminated, so
``parse_edge_list(write_edge_list(g))`` reproduces ``g`` byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DomainError, InputError

_DIRECTIVE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


class Graph:
    """Immutable simple undirected graph.

    Edges are stored canonically as parallel arrays ``edge_lo < edge_hi``
    sorted lexicographically.  Instances are safe to share across
    threads; all derived indices are cached on first use.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise InputError(f"vertex count must be positive, got {n}")
        pairs = np.asarray(list(edges), dtype=np.int64)
        if pairs.size == 0:
            raise DomainError("graph has no edges (every statistic divides by m)")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InputError("edges must be pairs of vertex ids")
        if pairs.min() < 0 or pairs.max() >= n:
            raise InputError(f"edge endpoint outside 0..{n - 1}")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            v = int(lo[np.argmax(lo == hi)])
            raise InputError(f"self-loop at vertex {v}")
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(dup):
            i = int(np.argmax(dup))
            raise InputError(f"duplicate edge {int(lo[i])} {int(hi[i])}")
        for arr in (lo, hi):
            arr.setflags(write=False)
        self.n = int(n)
        self.m = int(lo.shape[0])
        self.edge_lo = lo
        self.edge_hi = hi

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_lo, minlength=self.n) + np.bincount(
            self.edge_hi, minlength=self.n
        )
        deg.setflags(write=False)
        return deg

    @cached_property
    def _deg_float(self) -> np.ndarray:
        # Degrees are < 2**53, so this float copy is exact.
        d = self.degrees.astype(np.float64)
        d.setflags(write=False)
        return d

    @cached_property
    def adjacency(self) -> tuple[np.ndarray, ...]:
        """Per-vertex neighbor arrays, sorted ascending."""
        src = np.concatenate([self.edge_lo, self.edge_hi])
        dst = np.concatenate([self.edge_hi, self.edge_lo])
        order = np.lexsort((dst, src))
        dst = dst[order]
        offsets = np.concatenate([[0], np.cumsum(self.degrees)])
        out = []
        for v in range(self.n):
            nb = dst[offsets[v]:offsets[v + 1]]
            nb.setflags(write=False)
            out.append(nb)
        return tuple(out)

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjacency[v]

    @cached_property
    def _lower_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges ordered by (edge_hi, edge_lo): the lower-neighbour lists in CSR order.

        The first array holds, for j = 0, 1, ..., the neighbours of j below
        j in ascending order; the second repeats j along each such run.
        Drives the martingale variance, which reveals vertices in id order.
        """
        order = np.argsort(self.edge_hi, kind="stable")
        lo = self.edge_lo[order]
        hi = self.edge_hi[order]
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    @cached_property
    def _edge_degree_product_sum(self) -> int:
        # Exact wide-integer sum of k_u * k_v over edges.
        deg = self.degrees
        return sum(int(deg[u]) * int(deg[v]) for u, v in zip(self.edge_lo, self.edge_hi))

    @cached_property
    def summary(self) -> "DegreeSummary":
        deg = [int(k) for k in self.degrees]
        if sum(deg) != 2 * self.m:
            raise AssertionError("degree sum does not equal twice the edge count")
        return DegreeSummary(
            n=self.n,
            m=self.m,
            S2=sum(k * k for k in deg),
            S4=sum(k ** 4 for k in deg),
            kmax=max(deg),
        )

    def edges(self) -> list[tuple[int, int]]:
        return [(int(u), int(v)) for u, v in zip(self.edge_lo, self.edge_hi)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.edge_lo, other.edge_lo))
            and bool(np.array_equal(self.edge_hi, other.edge_hi))
        )

    __hash__ = None  # mutable-free but identity is not meaningful for keys

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeSummary:
    """Exact integer degree statistics: S2 = sum k^2, S4 = sum k^4."""

    n: int
    m: int
    S2: int
    S4: int
    kmax: int


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Rejects self-loops, duplicate edges (in either order), ids at or
    above a declared vertex count, and zero-edge inputs, reporting the
    offending line number.
    """
    declared_n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _DIRECTIVE.match(line)
            if match and declared_n is None:
                declared_n = int(match.group(1))
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {ln}: expected two vertex ids, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {ln}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise InputError(f"line {ln}: vertex ids must be nonnegative")
        if u == v:
            raise InputError(f"line {ln}: self-loop at vertex {u}")
        if declared_n is not None and max(u, v) >= declared_n:
            raise InputError(f"line {ln}: vertex id {max(u, v)} >= declared n={declared_n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"line {ln}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        edges.append(key)
        max_id = max(max_id, u, v)
    if not edges:
        raise InputError("edge list contains no edges")
    n = declared_n if declared_n is not None else max_id + 1
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    """Canonical text form: ``# n=`` directive then sorted ``u v`` lines."""
    lines = [f"# n={g.n}"]
    lines.extend(f"{int(u)} {int(v)}" for u, v in zip(g.edge_lo, g.edge_hi))
    return "\n".join(lines) + "\n"


def degree_summary(g: Graph) -> DegreeSummary:
    """Exact integer summary (n, m, S2, S4, kmax) of the degree sequence."""
    return g.summary


def common_neighbor_frobenius(g: Graph) -> int:
    """Squared Frobenius norm of the common-neighbor count matrix.

    Entry (i, j) of that matrix counts common neighbors of i and j; the
    diagonal equals the degrees.  Computed sparsely in O(sum of k_l^2).
    """
    rows = np.concatenate([g.edge_lo, g.edge_hi])
    cols = np.concatenate([g.edge_hi, g.edge_lo])
    a = sparse.csr_matrix(
        (np.ones(rows.shape[0], dtype=np.int64), (rows, cols)), shape=(g.n, g.n)
    )
    two_hop = a @ a
    return int(np.sum(two_hop.data.astype(np.int64) ** 2))
