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

so no pair of lower neighbours (no wedge) is ever visited.  The kernel
evaluates the same quantity in centered form,

    V_j = sum_{c seen} p_c (cnt_c - L p_c)^2 + L^2 (p_(3) - sum_{c seen} p_c^3)
          - D_j^2,   D_j = sum_{i in L_j} (p_(2) - p_{c_i}),

whose terms are of the size of V_j rather than L^2, so the result does not
lose digits on high-degree vertices.  Per row, the keys j*K + c_i - 1 of
the edges, i below j, are sorted, so the edges may come in any order; each
run of equal keys is one (j, c) pair with cnt_c its length.  The keys lie
below n*K and are uint32 when n*K <= 2**32, int64 otherwise; the key width
changes no bit of the result.  The cost is
O(rows * m * log m) time whatever K is, and rows go through in blocks of
about ``rng.budget_rows(64)`` keys (2**15), so the working memory stays
O(m + n).  The row value is sum_j V_j / (m r1), whose expectation is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .colors import ColorDistribution, lane_dtype, validate_coloring
from .errors import DomainError
from .graph import Graph
from .rng import budget_rows

ENUMERATION_GUARD = 10 ** 7


@dataclass(frozen=True)
class NullMoments:
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


@dataclass(frozen=True)
class Decomposition:
    """Split of Q into a constant, a centered-kernel term and a degree term.

    constant_term + kernel_term + degree_term reconstructs Q exactly (up
    to rounding); the constant equals the null mean, so the other two
    terms carry all the randomness.
    """

    constant_term: float
    kernel_term: float
    degree_term: float
    reconstructed_Q: float


def _mass_lanes(n: int, K: int) -> int:
    """Lanes per bincount of the degree-mass reduction.

    A block of b lanes counts its colors in b * (K + 1) slots; the lanes
    per block keep vertex and color slots near ``rng.budget_rows(32)``
    (64Ki; one lane at a time when K alone exceeds it).
    """
    # 32 bytes of budget per slot: a block takes at most 512 KB of slot
    # indices, drawn from the Q kernel's scratch, and its degree weights are
    # tiled once per sampling call; few calls for small graphs, bounded
    # memory for any K.
    return budget_rows(32 * (n + K + 1))


def _q_work_words(g: Graph, rows: int, lanes: int, K: int) -> int:
    """uint64 words of scratch that :func:`_q_lanes` needs for ``rows`` replicates."""
    return max(2 * g.m * (rows // lanes), g.n * min(rows, _mass_lanes(g.n, K)))


def _q_tables(g: Graph, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`_q_lanes` reads besides the colors, for colors up to K.

    Writeable copies of the edge ends (``np.take`` copies read-only index
    arrays, such as the graph's own, on every call) and the degrees tiled
    over the lanes of one bincount.
    """
    return g.edge_lo.copy(), g.edge_hi.copy(), np.tile(g._deg_float, _mass_lanes(g.n, K))


def _q_lanes(colors: np.ndarray, count: int, tables, work: np.ndarray) -> np.ndarray:
    """Q of the first ``count`` columns of ``colors``, colorings side by side.

    ``colors`` is a C-contiguous n x r array of unsigned lanes, r a
    multiple of the lanes per uint64 word, so row v packs vertex v's
    colors into r / lanes words; the columns from ``count`` on only pad
    the last word.  ``tables`` is :func:`_q_tables` for a K
    at least every color, and ``work`` is uint64 scratch of
    :func:`_q_work_words`; no other array the size of the graph is made.

    Same-color edges: the words at both ends of every edge are gathered
    and XORed, so a lane is zero exactly where the colors agree.  With L
    the low bits of every lane (0x7F.. for bytes), ~(((x & L) + L) | x | L)
    keeps a lane's top bit exactly when the lane is zero (Warren, *Hacker's
    Delight*, 2nd ed., 2013, sec. 6-1), and a shift moves it to the lane's
    lowest bit.  Words of at most 2**bits - 1 edges are summed as integers
    without carrying out of a lane, then the lanes of the block sums are
    added up.

    Degree mass: a color's mass is a sum of integer degrees, at most 2m,
    so the masses and the sum of their squares (at most 4m^2) are exact
    in float64 while 4m^2 < 2**53, i.e. m < 4.7e7.  Summation order is
    then free: lanes are reduced in blocks of ``_mass_lanes``, with
    one bincount per block.  Every count is an exact integer, so a
    replicate's Q does not depend on the lanes beside it.
    """
    n, r = colors.shape
    lo, hi, weights = tables
    m = lo.size
    bits = 8 * colors.itemsize
    groups = r * colors.itemsize // 8
    packed = colors.view(np.uint64)
    x = work[:m * groups].reshape(m, groups)
    zero = work[m * groups:2 * m * groups].reshape(m, groups)
    np.take(packed, lo, axis=0, out=x, mode="clip")
    np.take(packed, hi, axis=0, out=zero, mode="clip")
    x ^= zero
    low = np.full(8 // colors.itemsize, np.iinfo(colors.dtype).max >> 1, colors.dtype)
    low = low.view(np.uint64)[0]
    np.bitwise_and(x, low, out=zero)
    zero += low
    zero |= x
    zero |= low
    np.invert(zero, out=zero)
    zero >>= np.uint64(bits - 1)
    # Block sums reuse the XOR's memory; each row covers at least one edge.
    full, rest = divmod(m, min(m, (1 << bits) - 1))
    sums = work[:(full + (rest > 0)) * groups].reshape(-1, groups)
    np.add.reduce(zero[:m - rest].reshape(full, -1, groups), axis=1, out=sums[:full])
    if rest:
        np.add.reduce(zero[m - rest:], axis=0, out=sums[full])
    same = sums.view(colors.dtype)[:, :count].sum(axis=0, dtype=np.int64)

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
    return same / m - sumd2 / (4.0 * m * m)


def _q_of_rows(colorings: np.ndarray, g: Graph, K: int) -> np.ndarray:
    """Q of each row of an integer (rows x n) coloring array, by :func:`_q_lanes`."""
    rows = colorings.shape[0]
    dtype = lane_dtype(K)
    lanes = 8 // dtype.itemsize
    colors = np.zeros((g.n, -(-rows // lanes) * lanes), dtype)
    colors[:, :rows] = colorings.T
    work = np.empty(_q_work_words(g, colors.shape[1], lanes, K), np.uint64)
    return _q_lanes(colors, rows, _q_tables(g, K), work)


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


def _v2_rows(colors_2d: np.ndarray, g: Graph, dist: ColorDistribution) -> np.ndarray:
    """Conditional martingale variance per coloring row; see the module docstring.

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
    # A block's temporaries take 44 to 80 bytes per edge key (K = 2 to 300,
    # by tracemalloc), so 64 bytes of budget per key keep them near the
    # budget, cache-sized and reused, instead of large fresh arrays that
    # page-fault on every chunk.
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
        seen = np.bincount(row, weights=pc * e * e, minlength=rows)
        cell = row * n + j
        s3 = np.bincount(cell, weights=np.take(cube, c), minlength=rows * n).reshape(rows, n)
        d = np.bincount(cell, weights=cnt * (dist.p2 - pc), minlength=rows * n)
        d = d.reshape(rows, n)
        out.append(seen + (lower_deg * lower_deg * (p3 - s3) - d * d).sum(axis=1))
    return np.concatenate(out) / (m * dist.r1)


def martingale_variance(g: Graph, colors, dist: ColorDistribution) -> float:
    """Normalized conditional variance of the edge-kernel martingale.

    Vertices are revealed in index order; each new vertex j contributes
    the conditional variance of sum over earlier neighbors i of
    centered_kernel(c_i, c_j).  The normalization makes the expectation
    exactly 1 whenever the distribution is nondegenerate.
    """
    if dist.is_degenerate:
        raise DomainError("degenerate color distribution: martingale variance undefined")
    c = validate_coloring(colors, n=g.n, K=dist.K)
    return float(_v2_rows(c[None, :], g, dist)[0])


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
