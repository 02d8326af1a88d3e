"""Modularity of a partition and its exact moments under random labeling.

For a simple graph with adjacency A, degrees k and m edges, write
B_ij = A_ij - k_i k_j / (2m) (rows and columns of B sum to zero) and let
Q be the sum of B_ij over same-color ordered pairs, divided by 2m.
Under independent random colors with power sums p_(2), p_(3):

    mean      mu     = -(1 - p_(2)) * sum_i k_i^2 / (4 m^2)
    variance  sigma2 = r1/(2m^2) * sum_{i != j} B_ij^2 + r2/m^2 * sum_i B_ii^2
    scale     delta2 = r1 / m          (the simpler asymptotic variance)

Both B sums reduce to degree statistics, so the moments cost O(n + m):

    sum_{i != j} B_ij^2 = 2m - (2/m) sum_{edges uv} k_u k_v + (S2^2 - S4)/(4m^2)
                        = (8m^3 - 8m sum_{edges uv} k_u k_v + S2^2 - S4) / (4m^2)
    sum_i B_ii^2        = S4 / (4 m^2)

Accumulations over vertices and edges use exactly rounded summation
(math.fsum); integer quantities stay exact all the way to the final
division, which keeps the closed forms within 1e-11 of the enumeration
oracle on every test instance.

Martingale variance
-------------------
Reveal vertices in id order.  Vertex j, with L = |L_j| lower neighbours
and cnt_c of them colored c, adds the variance over its own color c ~ p
of S(c) = sum_{i in L_j} h(c_i, c), h the centered kernel.  With
P = sum_{i in L_j} p_{c_i}, R = sum_{i in L_j} p_{c_i}^2 and
T = sum_c p_c cnt_c^2 this is

    V_j = T - 2 L R + L^2 p_(3) - (L p_(2) - P)^2,

so no pair of lower neighbours (no wedge) is ever visited.  The row value
is sum_j V_j / (m r1), whose expectation is 1.

For K = 2, the default of every study, V_j is a quadratic form in two
integers, L and the count c of color-2 lower neighbours (cnt_1 = L - c):

    V_j   = alpha L^2 + beta L c + gamma c^2,
    alpha = p_1 - 2 p_1^2 + p_(3) - (p_(2) - p_1)^2,
    beta  = 2 (p_(2) - p_1)(p_2 - p_1) - 2 p_1 - 2 (p_2^2 - p_1^2),
    gamma = p_1 + p_2 - (p_2 - p_1)^2.

So a row is (alpha S_LL + beta S_Lc + gamma S_cc) / (m r1), with the int64
sums S_LL = sum_j L^2, S_Lc = sum_j L c and S_cc = sum_j c^2, each at most
m^2.  Every float is a dyadic rational, so alpha, beta, gamma and r1 of
the float p are exact integers over one power-of-two denominator, and a
row's numerator and denominator are exact Python ints, which one true
division rounds correctly (:func:`_v2_rounded`).  A row's value depends on
its integer sums alone: no block size, lane width, thread count or
summation order can move a bit of it.  The sampler reads c from its packed
uint8 lanes (:func:`_v2_lanes`): the words at the lower ends, in the order
of their upper ends, become one 0/1 byte per lane, (word >> 1) &
0x0101...01 (color 2 is 0b10, color 1 and padding are below it), and are
added per vertex in segments of at most 255 edges, so no byte carries.
That costs O(rows * m) byte work plus O(rows * n) integer work.  One
coloring (:func:`martingale_variance`) counts c with one bincount.

For K >= 3 (:func:`_v2_sorted_keys`), per row, the keys j*K + c_i - 1 of
the edges, i below j, are sorted, so the edges may come in any order; each
run of equal keys is one (j, c) pair with cnt_c its length, and bincounts
over the cells (row, j) add V_j in centered form,

    V_j = sum_{c seen} p_c (cnt_c - L p_c)^2 + L^2 (p_(3) - sum_{c seen} p_c^3)
          - D_j^2,   D_j = sum_{i in L_j} (p_(2) - p_{c_i}),

whose terms are of the size of V_j rather than L^2, so the result does not
lose digits on high-degree vertices.  Each V_j is formed whole, and the V_j
of a row are added pairwise in vertex order by one ``sum`` along the row.
The keys lie below n*K and are uint32 when n*K <= 2**32, int64 otherwise;
the key width changes no bit of the result.  The cost is
O(rows * m * log m) time, and rows go through in blocks of about
``rng.budget_rows(64)`` keys (2**15), so the working memory stays O(m + n).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from .colors import ColorDistribution, lane_dtype, validate_coloring
from .errors import DomainError
from .graph import Graph
from .rng import budget_rows

ENUMERATION_GUARD = 10 ** 7


class NullMoments(NamedTuple):
    """Exact null mean/variance of modularity plus the pieces they are built from."""

    mu: float
    sigma2: float
    delta2: float
    r1: float
    r2: float
    sum_offdiag_B2: float
    sum_diag_B2: float

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def delta(self) -> float:
        return math.sqrt(self.delta2)


class Decomposition(NamedTuple):
    """Split of Q into a constant, a centered-kernel term and a degree term.

    constant_term + kernel_term + degree_term reconstructs Q exactly (up
    to rounding); the constant equals the null mean, so the other two
    terms carry all the randomness.
    """

    constant_term: float
    kernel_term: float
    degree_term: float
    reconstructed_Q: float


# Rows of colors 0..2 whose byte sums cannot carry (2 * 127 < 256), and
# rows of 0/1 bools likewise.
_PLANE_ROWS = 127
_BOOL_ROWS = 255


def _mass_lanes(n: int, K: int) -> int:
    """Lanes per bincount of the degree-mass reduction for K >= 3.

    A block of b lanes counts its colors in b * (K + 1) slots; the lanes
    per block keep vertex and color slots near ``rng.budget_rows(32)``
    (64Ki; one lane at a time when K alone exceeds it).
    """
    # 32 bytes of budget per slot: a block takes at most 512 KB of slot
    # indices, drawn from the Q kernel's scratch, and its degree weights are
    # tiled once per sampling call; few calls for small graphs, bounded
    # memory for any K.
    return budget_rows(32 * (n + K + 1))


def _chunking(n: int, lanes: int) -> tuple[int, int]:
    """Replicates per chunk, for ``lanes`` lanes per word, and uint64 words of scratch.

    A lane group needs at most n + n // 127 + 1 words of scratch in any
    stage (a degree plane of up to n - 1 vertices and its byte sums), and
    16 for one vertex's stream states and their mixing scratch.  A chunk's
    lane groups, at least one, fill a quarter of ``rng.BUDGET`` with that
    many words each, and the scratch is half of it, or one group's worth
    when that is more.  So the scratch holds every stage of any chunk: a
    block of states, a block of edges (:func:`_edge_block`), a gathered
    degree plane and its byte sums, or the slots of one degree-mass
    bincount (:func:`_mass_lanes`).
    """
    group = max(16, n + n // _PLANE_ROWS + 1)
    return lanes * budget_rows(32 * group), max(budget_rows(16), group)


def _edge_block(m: int, groups: int) -> int:
    """Edges per block of :func:`_q_lanes`'s same-color count: the words of
    ``groups`` lane groups at both ends of a block, and a copy of one end's
    vertex ids, fit half of ``rng.BUDGET``."""
    return min(m, budget_rows(16 * (2 * groups + 1)))


def _q_tables(g: Graph, K: int) -> tuple:
    """What :func:`_q_lanes` reads besides the colors, for colors up to K.

    The edge ends, then for K <= 2 the degree bit planes and for K >= 3 the
    degrees tiled over the lanes of one bincount.
    """
    if K <= 2:
        return g.edge_lo, g.edge_hi, g._degree_planes, None
    return g.edge_lo, g.edge_hi, None, np.tile(g._deg_float, _mass_lanes(g.n, K))


def _byte_column_sums(a: np.ndarray, rows: int, spare: np.ndarray) -> np.ndarray:
    """int64 column sums of a C-contiguous (N, r) uint8 array.

    ``rows`` rows at a time add up without leaving a byte.  A block of
    ``rows * q`` rows is viewed as ``rows`` contiguous rows of q * r bytes
    and reduced over them in one pass, into ``spare`` (uint8, at least
    ``N // rows * r`` bytes, apart from ``a``); those sums and the last
    N % rows rows are then added up per column.
    """
    N, r = a.shape
    q = N // rows
    head = spare[:q * r]
    np.add.reduce(a[:rows * q].reshape(rows, q * r), axis=0, dtype=np.uint8, out=head)
    sums = head.reshape(q, r).sum(axis=0, dtype=np.int64)
    sums += np.add.reduce(a[rows * q:], axis=0, dtype=np.uint8)
    return sums


def _q_lanes(colors: np.ndarray, count: int, tables, work: np.ndarray) -> np.ndarray:
    """Q of the first ``count`` columns of ``colors``, colorings side by side.

    ``colors`` is a C-contiguous n x r array of unsigned lanes, r a
    multiple of the lanes per uint64 word, so row v packs vertex v's
    colors into r / lanes words; the columns from ``count`` on only pad
    the last word (with colors of their own or with zeros).  ``tables``
    is :func:`_q_tables` for a K at least every color, and ``work`` is the
    uint64 scratch of :func:`_chunking`, r at most its chunk; no other
    array the size of the graph is made.

    Same-color edges, in blocks of :func:`_edge_block` edges: each end's
    vertex ids are copied into the scratch (``np.take`` copies read-only
    ids, such as the graph's, itself), the words at both ends of each edge
    are gathered and XORed, and ``np.equal``
    compares each lane with zero, writing one bool per lane over the
    gathered words of the other end.  The bools are added up as bytes, at
    most 255 edges to a byte, and the blocks' counts as int64.

    Degree mass: a color's mass is a sum of integer degrees, at most 2m,
    so the masses and the sum of their squares (at most 4m^2) are exact
    in float64 while 4m^2 < 2**53, i.e. m < 4.7e7, and any exact method
    gives the same Q.  For K <= 2, with colors 1 and 2,
    mass_2 = sum_v k_v c_v - 2m and mass_1 = 2m - mass_2, and sum_v k_v c_v
    is sum_k 2**k times the color sum over degree bit plane k (see
    :attr:`Graph._degree_planes`, cached on the graph): the plane's rows of
    packed colors are added as bytes, at most 127 rows to a byte, and a
    plane that holds every vertex is read in place, with no gather.  For
    K >= 3 lanes are reduced in blocks of ``_mass_lanes``, with one
    weighted bincount per block.  Every count is an exact integer, so a replicate's Q does not
    depend on the lanes beside it.
    """
    n, r = colors.shape
    lo, hi, planes, weights = tables
    m = lo.size
    groups = r * colors.itemsize // 8
    packed = colors.view(np.uint64)
    step = _edge_block(m, groups)
    same = np.zeros(r, np.int64)
    for a in range(0, m, step):
        b = min(step, m - a)
        x = work[:b * groups].reshape(b, groups)
        y = work[b * groups:2 * b * groups].reshape(b, groups)
        ends = work[2 * b * groups:(2 * groups + 1) * b].view(np.int64)
        for end, out in ((lo, x), (hi, y)):
            np.copyto(ends, end[a:a + b])
            np.take(packed, ends, axis=0, out=out, mode="clip")
        x ^= y
        equal = np.equal(x.view(colors.dtype), 0,
                         out=y.reshape(-1).view(bool)[:b * r].reshape(b, r))
        same += _byte_column_sums(equal.view(np.uint8), _BOOL_ROWS, x.reshape(-1).view(np.uint8))

    if planes is not None:
        spare = work.view(np.uint8)
        total = np.zeros(r, np.int64)
        for weight, members in planes:
            if members is None:
                total += weight * _byte_column_sums(colors, _PLANE_ROWS, spare)
                continue
            rows = work[:members.size * groups].reshape(-1, groups)
            np.take(packed, members, axis=0, out=rows, mode="clip")
            total += weight * _byte_column_sums(rows.view(np.uint8), _PLANE_ROWS,
                                                spare[rows.nbytes:])
        mass2 = (total[:count] - 2 * m).astype(np.float64)
        mass1 = 2.0 * m - mass2
        sumd2 = mass1 * mass1 + mass2 * mass2
    else:
        step = weights.size // n
        width = int(colors.max()) + 1
        # Lane i of a block counts its colors in slots i*width .. i*width + width - 1.
        offsets = np.arange(0, step * width, width, dtype=np.int64)[:, None]
        sumd2 = np.empty(count)
        for a in range(0, count, step):
            b = min(step, count - a)
            slots = work[:b * n].view(np.int64).reshape(b, n)
            np.add(colors[:, a:a + b].T, offsets[:b], out=slots)
            mass = np.bincount(slots.reshape(-1), weights=weights[:b * n], minlength=b * width)
            mass = mass.reshape(b, width)
            sumd2[a:a + b] = np.einsum("ij,ij->i", mass, mass)
    return same[:count] / m - sumd2 / (4.0 * m * m)


def _q_of_rows(colorings: np.ndarray, g: Graph, K: int) -> np.ndarray:
    """Q of each row of an integer (rows x n) coloring array, by :func:`_q_lanes`:
    the rows are packed into lanes in the sampler's chunks, with the chunks'
    scratch (see :func:`_q_lanes` for the layout); the lanes past a chunk's
    rows hold 0."""
    tables = _q_tables(g, K)
    rows, n = colorings.shape
    dtype = lane_dtype(K)
    lanes = 8 // dtype.itemsize
    step, words = _chunking(n, lanes)
    buffer = np.empty(n * min(step, -(-rows // lanes) * lanes), dtype)
    work = np.empty(words, np.uint64)
    out = np.empty(rows)
    for a in range(0, rows, step):
        count = min(step, rows - a)
        colors = buffer[:n * -(-count // lanes) * lanes].reshape(n, -1)
        colors[:, :count] = colorings[a:a + count].T
        colors[:, count:] = 0
        out[a:a + count] = _q_lanes(colors, count, tables, work)
    return out


def modularity(g: Graph, colors) -> float:
    """Q for one partition; strictly between -1 and 1.

    Evaluated as (within-community edges)/m - sum_k (d_k/(2m))^2 with
    d_k the total degree of community k, which equals the pairwise
    definition including the diagonal terms.
    """
    c = validate_coloring(colors, n=g.n)
    return float(_q_of_rows(c[None, :], g, int(c.max()))[0])


def null_moments(g: Graph, dist: ColorDistribution) -> NullMoments:
    """Exact mean, variance and asymptotic scale of Q under random labeling."""
    s = g.summary
    m = g.m
    # One exact integer numerator and one correctly rounded division: on
    # dense graphs the three terms nearly cancel.
    skk = g._edge_degree_product_sum
    sum_offdiag_b2 = (8 * m ** 3 - 8 * m * skk + s.S2 * s.S2 - s.S4) / (4 * m * m)
    sum_diag_b2 = s.S4 / (4 * m * m)
    mu = -((1.0 - dist.p2) * s.S2) / (4 * m * m)
    sigma2 = dist.r1 / (2 * m * m) * sum_offdiag_b2 + dist.r2 / (m * m) * sum_diag_b2
    delta2 = dist.r1 / m
    return NullMoments(
        mu=mu,
        sigma2=sigma2,
        delta2=delta2,
        r1=dist.r1,
        r2=dist.r2,
        sum_offdiag_B2=sum_offdiag_b2,
        sum_diag_B2=sum_diag_b2,
    )


def center_decompose(g: Graph, colors, dist: ColorDistribution) -> Decomposition:
    """Exact three-term split of Q; see :class:`Decomposition`.

    All pair sums are reduced algebraically to O(n + m) accumulations:
    the centered-kernel sum over *all* pairs splits into an edge part and
    a degree-product part expressed through color degree masses.
    """
    c = validate_coloring(colors, n=g.n, K=dist.K)
    m = g.m
    s = g.summary
    p = dist.p
    p2 = dist.p2

    pc = p[c - 1]
    deg = g._deg_float
    w1 = math.fsum((deg * pc).tolist())
    w2 = math.fsum((deg * deg * pc).tolist())

    mass = np.bincount(c, weights=deg, minlength=dist.K + 1)
    d2 = math.fsum((mass * mass).tolist())

    c_lo = c[g.edge_lo]
    c_hi = c[g.edge_hi]
    kern_edges = (c_lo == c_hi).astype(np.float64) - p[c_lo - 1] - p[c_hi - 1] + p2
    edge_h = math.fsum(kern_edges.tolist())

    # sum over ordered pairs (incl. diagonal) of k_i k_j * kernel(c_i, c_j)
    s_all = d2 - 4.0 * m * w1 + 4.0 * m * m * p2
    # diagonal part: kernel(a, a) = 1 - 2 p_a + p_(2)
    s_diag = s.S2 * (1.0 + p2) - 2.0 * w2
    pair_kk_h = 0.5 * (s_all - s_diag)

    constant_term = -((1.0 - p2) * s.S2) / (4 * m * m)
    kernel_term = (edge_h - pair_kk_h / (2.0 * m)) / m
    degree_term = (w2 - s.S2 * p2) / (2.0 * m * m)
    return Decomposition(
        constant_term=constant_term,
        kernel_term=kernel_term,
        degree_term=degree_term,
        reconstructed_Q=constant_term + kernel_term + degree_term,
    )


def _v2_sorted_keys(colors_2d: np.ndarray, g: Graph, dist: ColorDistribution) -> np.ndarray:
    """Conditional martingale variance per coloring row by sorted (j, c) keys,
    for K >= 3 (two colors go through :func:`_v2_rounded`); see the module
    docstring.

    Every row goes through the same operations whatever block it lands
    in, so a row's value is bit-identical for any batch size, chunking or
    thread count.
    """
    n, m, K = g.n, g.m, dist.K
    hi = g.edge_hi
    # A writeable copy: np.take copies a read-only index array on every call.
    lo = g.edge_lo.copy()
    lower_deg = np.bincount(hi, minlength=n).astype(np.float64)
    # Keys lie below n * K, and uint32 sorts them in half the time of
    # int64.  Wider keys stay int64: uint64 mixed with the int64 row index
    # gives float64.  At hi = 0 the uint32 base wraps to 2**32 - 1, and
    # adding a color >= 1 wraps back.
    key_type = np.uint32 if n * K <= 1 << 32 else np.int64
    base = (hi * K - 1).astype(key_type)
    p = dist.p
    cube = p * p * p
    # Summed in color order, the order in which a vertex's runs accumulate,
    # so a vertex that sees every color gets an absent mass of exactly 0.
    p3 = float(np.cumsum(cube)[-1])
    # A block's temporaries take 36 to 100 bytes per edge key (K = 2 to 300,
    # m / n = 15 to 1.5, by tracemalloc; each rows x n array adds 8 n / m),
    # so 64 bytes of budget per key keep them near the budget, cache-sized
    # and reused, instead of large fresh arrays that page-fault on every
    # chunk.
    step = budget_rows(64 * max(m, n))
    run_length = np.empty(min(step, colors_2d.shape[0]) * m, np.int64)
    out = []
    for start in range(0, colors_2d.shape[0], step):
        block = colors_2d[start:start + step]
        rows = block.shape[0]
        keys = np.take(block, lo, axis=1).astype(key_type)
        keys += base
        keys.sort(axis=1)
        first = np.empty(keys.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        cnt = run_length[:starts.size]
        np.subtract(starts[1:], starts[:-1], out=cnt[:-1])
        cnt[-1] = keys.size - starts[-1]
        key = np.take(keys, starts)
        j = key // K
        c = key - j * K
        row = starts // m
        pc = np.take(p, c)
        e = cnt - np.take(lower_deg, j) * pc
        cell = row * n + j
        seen = np.bincount(cell, weights=pc * e * e, minlength=rows * n).reshape(rows, n)
        s3 = np.bincount(cell, weights=np.take(cube, c), minlength=rows * n).reshape(rows, n)
        d = np.bincount(cell, weights=cnt * (dist.p2 - pc), minlength=rows * n)
        d = d.reshape(rows, n)
        out.append((seen + (lower_deg * lower_deg * (p3 - s3) - d * d)).sum(axis=1))
    return np.concatenate(out) / (m * dist.r1)


# The low bit of every byte of a word: (word >> 1) & _LANE_ONES is 1 in the
# uint8 lanes that hold color 2 and 0 in those that hold color 1 or 0.
_LANE_ONES = np.uint64(0x0101010101010101)


def _v2_tables(g: Graph, dist: ColorDistribution):
    """What :func:`_v2_lanes` reads besides the colors: for K = 2, the arrays
    below; None otherwise (K >= 3 sorts keys, and K = 1 is degenerate).

    ``ends`` holds the lower ends of the edges in the order of their upper
    ends, a run per vertex starting at ``first[j]`` (n + 1 entries); a
    vertex with no lower neighbour gets a run of one id, 0, whose count
    :func:`_v2_lanes` sets to 0.  ``seg_start`` cuts the runs into segments
    of at most 255 ends, and ``seg_first[j]`` is vertex j's first segment.
    ``lower`` holds the lower degrees L (int64).
    """
    if dist.K != 2:
        return None
    n = g.n
    lower = np.bincount(g.edge_hi, minlength=n)
    span = np.maximum(lower, 1)
    first = np.zeros(n + 1, np.int64)
    np.cumsum(span, out=first[1:])
    ends = np.zeros(first[-1], np.int64)
    real = np.ones(ends.size, bool)
    real[first[:-1][lower == 0]] = False
    # A vertex's count does not depend on the order of its run.
    ends[real] = g.edge_lo[np.argsort(g.edge_hi)]
    pieces = -(-span // _BOOL_ROWS)
    seg_first = np.zeros(n + 1, np.int64)
    np.cumsum(pieces, out=seg_first[1:])
    owner = np.repeat(np.arange(n), pieces)
    seg_start = first[owner] + _BOOL_ROWS * (np.arange(owner.size) - seg_first[owner])
    return ends, first, seg_start, seg_first, lower


def _color2_counts(words: np.ndarray, tables, v0: int, v1: int,
                   gathered: np.ndarray) -> np.ndarray:
    """Color-2 lower neighbours of vertices v0..v1-1 in every lane of ``words``
    (n x groups uint64), as a (v1 - v0) x lanes int64 array.

    The words at the vertices' runs of lower ends are gathered into
    ``gathered``, which must hold them all, shifted and masked to one 0/1
    byte per lane, and added per segment of at most 255 edges by
    ``np.add.reduceat``; a vertex's segments are then added as int64.
    """
    ends, first, seg_start, seg_first = tables[:4]
    groups = words.shape[1]
    a, b = int(first[v0]), int(first[v1])
    s0, s1 = int(seg_first[v0]), int(seg_first[v1])
    x = gathered[:(b - a) * groups].reshape(b - a, groups)
    np.take(words, ends[a:b], axis=0, out=x, mode="clip")
    x >>= np.uint64(1)
    x &= _LANE_ONES
    sums = np.add.reduceat(x, seg_start[s0:s1] - a, axis=0).view(np.uint8)
    # A reduceat into int64 takes ~40 times a cast, so only a block with a
    # vertex of several segments pays for one.
    if s1 - s0 == v1 - v0:
        return sums.astype(np.int64)
    return np.add.reduceat(sums, seg_first[v0:v1] - s0, axis=0, dtype=np.int64)


def _v2_rounded(lower: np.ndarray, s_lc, s_cc, m: int, dist: ColorDistribution) -> np.ndarray:
    """Two-color martingale variances, exactly rounded, of the rows whose
    integer sums S_Lc and S_cc are ``s_lc`` and ``s_cc``; ``lower`` holds the
    lower degrees.  See the module docstring.

    p_c = a_c / s over the larger of the denominators of p_1 and p_2, both
    powers of two, so alpha, beta, gamma and r1 times s^4 are integers.
    """
    (n1, d1), (n2, d2) = (x.as_integer_ratio() for x in dist.p.tolist())
    s = max(d1, d2)
    a1, a2 = n1 * (s // d1), n2 * (s // d2)
    # p_(2) s^2, p_(3) s^3 and (p_(2) - p_1) s^2.
    q2, q3 = a1 * a1 + a2 * a2, a1 ** 3 + a2 ** 3
    gap = q2 - a1 * s
    alpha = a1 * s ** 3 - 2 * a1 * a1 * s * s + q3 * s - gap * gap
    beta = 2 * gap * (a2 - a1) * s - 2 * a1 * s ** 3 - 2 * (a2 * a2 - a1 * a1) * s * s
    gamma = (a1 + a2) * s ** 3 - (a2 - a1) ** 2 * s * s
    scale = m * (q2 * s * s + q2 * q2 - 2 * q3 * s)
    base = alpha * int(lower @ lower)
    return np.array([(base + beta * x + gamma * y) / scale for x, y in zip(s_lc, s_cc)])


def _v2_lanes(colors: np.ndarray, count: int, g: Graph, dist: ColorDistribution,
              tables, work: np.ndarray) -> np.ndarray:
    """Martingale variance of the first ``count`` columns of ``colors``, an
    n x r lane array as :func:`_q_lanes` takes it; ``tables`` is
    :func:`_v2_tables`.

    For K = 2, vertices go in blocks whose lower ends, gathered for every
    lane at once, fit the uint64 scratch ``work`` of :func:`_chunking`, and
    whose int64 counts take at most ``budget_rows(32 * r)`` vertices.  A
    vertex's run of fewer than n ends always fits: the scratch holds n + 1
    words at one lane group and twice that per group at more.  Each block's
    counts c add c * c and L * c into the lanes' S_cc and S_Lc, and
    :func:`_v2_rounded` rounds the rows.  For K >= 3 the columns go to
    :func:`_v2_sorted_keys`, and ``work`` is not used.
    """
    if tables is None:
        return _v2_sorted_keys(colors.T[:count], g, dist)
    n, r = colors.shape
    words = colors.view(np.uint64)
    first, lower = tables[1], tables[4]
    edges = work.size // words.shape[1]
    most = budget_rows(32 * r)
    s_lc = np.zeros(r, np.int64)
    s_cc = np.zeros(r, np.int64)
    v0 = 0
    while v0 < n:
        v1 = min(v0 + most, int(np.searchsorted(first, first[v0] + edges, "right")) - 1)
        c = _color2_counts(words, tables, v0, v1, work)
        c[lower[v0:v1] == 0] = 0
        s_lc += lower[v0:v1] @ c
        s_cc += np.einsum("ij,ij->j", c, c)
        v0 = v1
    return _v2_rounded(lower, s_lc[:count].tolist(), s_cc[:count].tolist(), g.m, dist)


def martingale_variance(g: Graph, colors, dist: ColorDistribution) -> float:
    """Normalized conditional variance of the edge-kernel martingale.

    Vertices are revealed in index order; each new vertex j contributes
    the conditional variance of sum over earlier neighbors i of the
    centered kernel h(c_i, c_j).  The normalization makes the expectation
    exactly 1 whenever the distribution is nondegenerate.  For K = 2 the
    color-2 counts are one bincount and the value is exactly rounded, bit
    for bit the sampler's; K >= 3 goes through the sorted keys.  No lane
    tables are built.
    """
    if dist.is_degenerate:
        raise DomainError("degenerate color distribution: martingale variance undefined")
    c = validate_coloring(colors, n=g.n, K=dist.K)
    if dist.K != 2:
        return float(_v2_sorted_keys(c[None, :], g, dist)[0])
    lower = np.bincount(g.edge_hi, minlength=g.n)
    two = np.bincount(g.edge_hi[c[g.edge_lo] == 2], minlength=g.n)
    return float(_v2_rounded(lower, [int(lower @ two)], [int(two @ two)], g.m, dist)[0])


def exact_moments_by_enumeration(g: Graph, dist: ColorDistribution) -> tuple[float, float]:
    """Exact (mean, variance) of Q by weighted enumeration of all K^n colorings.

    Independent oracle for :func:`null_moments`: no moment algebra, just
    the probability-weighted sum with exactly rounded accumulation and a
    second centered pass for the variance.  Refuses instances with more
    than ``ENUMERATION_GUARD`` colorings.
    """
    total = dist.K ** g.n
    if total > ENUMERATION_GUARD:
        raise DomainError(f"enumeration of {total} colorings exceeds guard {ENUMERATION_GUARD}")
    place = (dist.K ** np.arange(g.n - 1, -1, -1, dtype=np.int64))
    # A chunk's digits and color lookups hold about two int64 rows of n
    # per coloring at once.
    chunk = budget_rows(16 * g.n)
    # The weights and Q values, 16 bytes per coloring; the sums below
    # form their products a chunk at a time.
    w = np.empty(total)
    q = np.empty(total)
    blocks = [slice(start, min(start + chunk, total)) for start in range(0, total, chunk)]
    for b in blocks:
        idx = np.arange(b.start, b.stop, dtype=np.int64)
        colorings = (idx[:, None] // place[None, :]) % dist.K + 1
        w[b] = np.prod(dist.p[colorings - 1], axis=1)
        q[b] = _q_of_rows(colorings, g, dist.K)

    def fsum(term) -> float:
        # One exactly rounded sum over every coloring, whatever the chunks.
        return math.fsum(chain.from_iterable(term(b).tolist() for b in blocks))

    total_w = fsum(lambda b: w[b])
    mean = fsum(lambda b: w[b] * q[b]) / total_w
    var = fsum(lambda b: w[b] * (q[b] - mean) ** 2) / total_w
    return mean, var
