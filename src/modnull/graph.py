"""Simple undirected graphs in compressed sparse row form, plus degree statistics.

The edge-list text format is one edge per line (two whitespace-separated
0-based vertex ids), ``#`` comment lines, and an optional ``# n=<count>``
directive that declares the vertex count (the only way to get isolated
vertices).  Self-loops and repeated edges are rejected as data bugs, not
cleaned up silently.  The canonical writer emits the directive followed
by edges with ``u < v`` in lexicographic order, newline terminated, so
``parse_edge_list(write_edge_list(g))`` reproduces ``g`` byte for byte.

Ingest is linear in the input.  :func:`int_rows` splits the text into
integer rows in one vectorized pass that follows ``str.splitlines``,
``str.split`` and ``int`` exactly; every check then runs once over whole
arrays, and an error is reported at its source line by mapping the
offending row back to it.  Degree statistics are exact int64 dot products
(Python integers when they could overflow), and the common-neighbour
Frobenius statistic counts 4-cycles in O(m * arboricity) time without
ever forming A^2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InputError

_DIRECTIVE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")

# Non-ASCII characters that str.split() treats as whitespace, mapped to an
# ASCII byte with the same role: " " within a line, and "\x0b" for the line
# breaks of str.splitlines() ("\x0b" never pairs with a preceding "\r").
_UNICODE_SPACE = str.maketrans(
    {
        **dict.fromkeys([0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000], " "),
        **dict.fromkeys([0x85, 0x2028, 0x2029], "\x0b"),
    }
)
# A string of at most 18 decimal digits fits in int64.
_FAST_DIGITS = 18
_INT64_MAX = np.iinfo(np.int64).max
# lo * top + hi stays below 2**63 for ids below this bound.
_PACK_BOUND = 3_037_000_499
# Ranked wedges expanded at once by the 4-cycle count: about 40 MB of
# temporaries per block, so memory stays bounded whatever the graph.
_WEDGE_BLOCK = 1 << 20
# Edges written at once by write_edge_list: about 2 MB of temporaries,
# small enough to stay in cache (fastest of 2^11..2^20 at m = 3e6).
_WRITE_BLOCK = 1 << 14
# 10 ** 1 .. 10 ** 18: an id v >= 0 has 1 + #{p <= v} decimal digits.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


class Graph:
    """Immutable simple undirected graph.

    Edges are stored canonically as parallel arrays ``edge_lo < edge_hi``
    sorted lexicographically.  Instances are safe to share across
    threads; all derived indices are cached on first use.
    """

    def __init__(self, n: int, edges):
        if n < 1:
            raise InputError(f"vertex count must be positive, got {n}")
        if isinstance(edges, _CheckedEdges):
            lo, hi = edges
        else:
            lo, hi = _checked_edges(n, edges)
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
        """Exact sum of k_u * k_v over edges (int64 when m * kmax^2 < 2**63)."""
        deg = self.degrees
        if _fits_int64(self.m, self.summary.kmax ** 2):
            return int(np.dot(deg[self.edge_lo], deg[self.edge_hi]))
        ks = deg.tolist()
        return sum(ks[u] * ks[v] for u, v in zip(self.edge_lo.tolist(), self.edge_hi.tolist()))

    @cached_property
    def summary(self) -> "DegreeSummary":
        """Exact integer summary (n, m, S2, S4, kmax) of the degree sequence."""
        deg = self.degrees
        if int(deg.sum()) != 2 * self.m:
            raise AssertionError("degree sum does not equal twice the edge count")
        kmax = int(deg.max())
        if _fits_int64(self.n, kmax ** 4):
            sq = deg * deg
            s2, s4 = int(sq.sum()), int(np.dot(sq, sq))
        else:
            sq = [k * k for k in deg.tolist()]
            s2, s4 = sum(sq), sum(k * k for k in sq)
        return DegreeSummary(n=self.n, m=self.m, S2=s2, S4=s4, kmax=kmax)

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_lo.tolist(), self.edge_hi.tolist()))

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


class _CheckedEdges(tuple):
    """``(lo, hi)`` arrays that :func:`_canonical_edges` returned without a
    fault: the constructor takes them as they are."""


def _checked_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Validate constructor input and return it in canonical order."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        raise DomainError("graph has no edges (every statistic divides by m)")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError("edges must be pairs of vertex ids")
    lo, hi, fault = _canonical_edges(pairs[:, 0], pairs[:, 1], n)
    if fault is not None:
        row, kind = fault
        u, v = sorted(int(x) for x in pairs[row])
        if kind == "loop":
            raise InputError(f"self-loop at vertex {u}")
        if kind == "repeat":
            raise InputError(f"duplicate edge {u} {v}")
        raise InputError(f"edge endpoint outside 0..{n - 1}")
    return lo, hi


def _fits_int64(count: int, bound: int) -> bool:
    """Whether a sum of ``count`` terms, each at most ``bound``, fits in int64."""
    return count * bound <= _INT64_MAX


def _canonical_edges(u: np.ndarray, v: np.ndarray, limit):
    """Sort edges canonically and find the first invalid one.

    Returns ``(lo, hi, fault)``: the edges as ``lo < hi`` sorted
    lexicographically, and ``None`` or ``(row, kind)`` for the first row,
    in input order, that fails a check.  Each row is checked, in this
    order, for a "negative" id, a self-"loop", an id at or above ``limit``
    ("limit"; a scalar or one bound per row), and a "repeat" of an earlier
    row, which is reported at its second occurrence.
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    bad = (lo < 0) | (lo == hi) | (hi >= limit)
    top = int(hi.max()) + 1
    if top <= _PACK_BOUND and not bad.any():
        key = np.sort(lo * top + hi)
        if not np.any(key[1:] == key[:-1]):
            slo, shi = np.divmod(key, top)
            return slo, shi, None
    order = np.lexsort((hi, lo))  # stable: equal pairs keep their input order
    slo, shi = lo[order], hi[order]
    repeat = (slo[1:] == slo[:-1]) & (shi[1:] == shi[:-1])
    rows = []
    if bad.any():
        r = int(np.argmax(bad))
        rows.append((r, "negative" if lo[r] < 0 else "loop" if lo[r] == hi[r] else "limit"))
    if repeat.any():
        rows.append((int(order[1:][repeat].min()), "repeat"))
    # A row fails its own checks before it is compared with earlier rows.
    return slo, shi, (min(rows, key=lambda f: (f[0], f[1] == "repeat")) if rows else None)


def _csr(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, indices)`` of the edges ``lo < hi`` on ``n``
    vertices, each row ascending (needs n below ``_PACK_BOUND``)."""
    key = np.sort(np.concatenate([lo * n + hi, hi * n + lo]))
    row, indices = np.divmod(key, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr, indices


@dataclass(frozen=True)
class IntRows:
    """Integer rows of a whitespace-separated text table; see :func:`int_rows`."""

    values: np.ndarray  # (rows, width) int64; a malformed row reads 0
    line: np.ndarray  # 1-based source line of each row
    tokens: np.ndarray  # tokens on each row
    well_formed: np.ndarray  # exactly ``width`` tokens, each an int64 integer
    comments: list  # (line, stripped text) of every comment line, in order


def int_rows(text: str, width: int) -> IntRows:
    """Split ``text`` into rows of ``width`` integers in one vectorized pass.

    Lines, tokens and integers are those of ``str.splitlines``,
    ``str.split`` and ``int``: a line whose first token starts with ``#``
    is a comment, a line with no token is skipped, and every other line is
    a row.  A token that ``int`` rejects, or whose value falls outside
    int64, leaves its row malformed.  Plain digit strings are converted in
    numpy; only other tokens (signs, underscores, non-ASCII digits, very
    long strings) go through ``int`` one by one.
    """
    if not text.isascii():
        text = text.translate(_UNICODE_SPACE)
    data = text.encode()
    buf = np.frombuffer(data, dtype=np.uint8)
    # ASCII whitespace is 9..13 and 28..32; of it, str.splitlines() breaks
    # lines at 10..13 and 28..30, and "\r\n" is one break.
    breaks = (buf - np.uint8(10) <= 3) | (buf - np.uint8(28) <= 2)
    breaks[1:] &= (buf[1:] != 10) | (buf[:-1] != 13)
    space = np.ones(buf.size + 2, dtype=bool)
    np.logical_or(buf - np.uint8(9) <= 4, buf - np.uint8(28) <= 4, out=space[1:-1])
    start = np.flatnonzero(space[:-1] & ~space[1:])
    end = np.flatnonzero(~space[:-1] & space[1:])
    line = np.searchsorted(np.flatnonzero(breaks), start, side="right") + 1
    head = np.ones(start.size, dtype=bool)
    head[1:] = line[1:] != line[:-1]
    hash_line = buf[start[head]] == ord("#")
    comment = hash_line[np.cumsum(head) - 1]
    tail = np.ones(start.size, dtype=bool)
    tail[:-1] = head[1:]
    comments = [
        (ln, data[s:e].decode())
        for ln, s, e in zip(
            line[head][hash_line].tolist(),
            start[head][hash_line].tolist(),
            end[tail][hash_line].tolist(),
        )
    ]
    start, end, head = start[~comment], end[~comment], head[~comment]
    row_line = line[~comment][head]
    first = np.flatnonzero(head)
    tokens = np.diff(np.append(first, start.size))
    value, numeric = _token_ints(data, buf, start, end)
    fits = tokens == width
    cols = first[fits][:, None] + np.arange(width)
    values = np.zeros((first.size, width), dtype=np.int64)
    values[fits] = value[cols]
    well_formed = fits.copy()
    well_formed[fits] = numeric[cols].all(axis=1)
    return IntRows(values, row_line, tokens, well_formed, comments)


def _token_ints(data: bytes, buf: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Integer value of each token ``data[start:end]`` and whether it is one."""
    length = end - start
    value = np.zeros(start.size, dtype=np.int64)
    plain = length <= _FAST_DIGITS
    pos, last, at = start.copy(), end - 1, np.empty_like(start)
    for k in range(min(int(length.max(initial=0)), _FAST_DIGITS)):
        live = length > k
        digit = buf[np.minimum(pos, last, out=at)] - np.uint8(48)
        plain &= (digit <= 9) | ~live
        np.multiply(value, 10, out=value, where=live)
        np.add(value, digit, out=value, where=live)
        pos += 1
    numeric = plain.copy()
    for i in np.flatnonzero(~plain).tolist():
        try:
            x = int(data[start[i]:end[i]].decode())
        except ValueError:
            continue
        if -_INT64_MAX - 1 <= x <= _INT64_MAX:
            value[i], numeric[i] = x, True
    return value, numeric


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Rejects self-loops, duplicate edges (in either order), ids at or
    above a declared vertex count, and zero-edge inputs, reporting the
    offending line number: the first line that fails, and for a repeated
    edge the line that repeats it.  A directive bounds the ids on the
    lines after it.
    """
    rows = int_rows(text, 2)
    declared_n, directive_line = None, 0
    for ln, comment in rows.comments:
        match = _DIRECTIVE.match(comment)
        if match:
            declared_n, directive_line = int(match.group(1)), ln
            break
    if rows.line.size == 0:
        raise InputError("edge list contains no edges")
    limit = _INT64_MAX
    if declared_n is not None:
        limit = np.where(rows.line > directive_line, declared_n, _INT64_MAX)
    lo, hi, fault = _canonical_edges(rows.values[:, 0], rows.values[:, 1], limit)
    malformed = np.flatnonzero(~rows.well_formed)
    if malformed.size and (fault is None or malformed[0] <= fault[0]):
        ln = int(rows.line[malformed[0]])
        if rows.tokens[malformed[0]] != 2:
            raw = text.splitlines()[ln - 1]
            raise InputError(f"line {ln}: expected two vertex ids, got {raw!r}")
        raise InputError(f"line {ln}: vertex ids must be integers")
    if fault is not None:
        row, kind = fault
        u, v = (int(x) for x in rows.values[row])
        message = {
            "negative": "vertex ids must be nonnegative",
            "loop": f"self-loop at vertex {u}",
            "limit": f"vertex id {max(u, v)} >= declared n={declared_n}",
            "repeat": f"duplicate edge {min(u, v)} {max(u, v)}",
        }[kind]
        raise InputError(f"line {rows.line[row]}: {message}")
    top = int(hi.max())
    n = declared_n if declared_n is not None else top + 1
    if top >= n:
        # A directive after the edges it should bound: the constructor
        # reports the bad vertex count or endpoint.
        return Graph(n, np.column_stack([lo, hi]))
    return Graph(n, _CheckedEdges((lo, hi)))


def write_edge_list(g: Graph) -> str:
    """Canonical text form: ``# n=`` directive then sorted ``u v`` lines.

    The ASCII text is laid out in one byte buffer by array passes: an id's
    digit count fixes where it goes, and its digits are written one decimal
    place at a time, in blocks of ``_WRITE_BLOCK`` edges.
    """
    head = f"# n={g.n}\n".encode()
    blocks = [slice(s, s + _WRITE_BLOCK) for s in range(0, g.m, _WRITE_BLOCK)]

    def spans(b: slice) -> tuple[np.ndarray, np.ndarray]:
        # The ids of the block's edges, lo and hi interleaved, and the bytes
        # each takes: its digits and the separator after it.
        ids = np.column_stack([g.edge_lo[b], g.edge_hi[b]]).reshape(-1)
        return ids, np.searchsorted(_POW10, ids, side="right") + 2

    # A first pass sizes the buffer, a second fills it.
    buf = np.empty(len(head) + sum(int(spans(b)[1].sum()) for b in blocks), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    at = len(head)
    for b in blocks:
        ids, width = spans(b)
        end = at + np.cumsum(width)
        at = int(end[-1])
        buf[end[0::2] - 1] = ord(" ")
        buf[end[1::2] - 1] = ord("\n")
        pos = end - 2
        while ids.size:
            ids, digit = np.divmod(ids, 10)
            buf[pos] = digit + ord("0")
            more = ids > 0
            ids, pos = ids[more], pos[more] - 1
    return str(memoryview(buf), "ascii")


def common_neighbor_frobenius(g: Graph) -> int:
    """Squared Frobenius norm of the common-neighbor count matrix A^2.

    Entry (i, j) of that matrix counts common neighbors of i and j; the
    diagonal equals the degrees.  Uses the exact identity
    ||A^2||_F^2 = tr(A^4) = 2 S2 - 2m + 8 C4, with C4 the number of
    4-cycles, so A^2 is never formed.  See :func:`four_cycles` for the cost.
    """
    return 2 * g.summary.S2 - 2 * g.m + 8 * four_cycles(g)


def four_cycles(g: Graph) -> int:
    """Number of 4-cycles, in O(m * arboricity) time and bounded memory.

    Vertices are ranked by (degree, id).  A 4-cycle is counted once, from
    its top-ranked vertex v and the opposite vertex w: for every edge u-v
    with u below v, v is paired with each neighbour w of u ranked below v
    (a ranked wedge), and each pair (v, w) reached by c wedges closes
    C(c, 2) cycles.  Edge u-v gives at most min(k_u, k_v) wedges, so there
    are O(m * arboricity) of them (Chiba and Nishizeki, SIAM J. Comput. 14,
    1985).  Wedges are expanded and sorted in blocks of about
    ``_WEDGE_BLOCK`` that never split a top vertex.  All counts are exact
    integers.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n)
    a, b = rank[g.edge_lo], rank[g.edge_hi]
    indptr, nbr = _csr(n, np.minimum(a, b), np.maximum(a, b))
    # Entry (u, v) of the ranked CSR with v above u: its offset in row u is
    # the number of u's neighbours ranked below v.
    src = np.repeat(np.arange(n), np.diff(indptr))
    up = np.flatnonzero(nbr > src)
    u, v = src[up], nbr[up]
    by_top = np.argsort(v * n + u)
    u, v = u[by_top], v[by_top]
    wedges = up[by_top] - indptr[u]
    done = np.cumsum(wedges) - wedges
    top_start = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    cuts = top_start[np.r_[True, np.diff(done[top_start] // _WEDGE_BLOCK) > 0]]
    total = 0
    for e0, e1 in zip(cuts.tolist(), np.append(cuts[1:], v.size).tolist()):
        c = wedges[e0:e1]
        count = int(c.sum())
        if count == 0:
            continue
        base = np.cumsum(c) - c
        w = nbr[np.repeat(indptr[u[e0:e1]] - base, c) + np.arange(count)]
        _, runs = np.unique(np.repeat(v[e0:e1], c) * n + w, return_counts=True)
        total += int(np.sum(runs * (runs - 1) // 2))
    return total
