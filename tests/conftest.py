import math
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import modnull
from modnull import ColorDistribution, Graph, InputError, gen_er, validate_coloring
from modnull.rng import budget_rows
from modnull.serialize import _atom


@pytest.fixture(autouse=True, scope="session")
def child_interpreters_import_this_tree():
    """Let the ``python -m modnull.cli`` children of the CLI tests import the
    package under test, also when only pytest's ``pythonpath`` provides it."""
    src = str(Path(modnull.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def triangle():
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def path3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def cycle5():
    return Graph(5, [(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture
def star3():
    # K_{1,3}: hub 0 with three leaves
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def single_edge():
    return Graph(2, [(0, 1)])


def er_corpus(count=20, max_n=8):
    """Seeded small ER graphs (m >= 1 guaranteed by the generator)."""
    graphs = []
    sizes = (4, 5, 6, 7, 8)
    densities = (0.35, 0.5, 0.7, 0.9)
    for i in range(count):
        graphs.append(gen_er(sizes[i % len(sizes)], densities[i % len(densities)], seed=1000 + i))
    assert all(g.n <= max_n for g in graphs)
    return graphs


@pytest.fixture
def small_graphs(triangle, path3, cycle5, star3):
    return [triangle, path3, cycle5, star3] + er_corpus()


def standard_distributions():
    return [
        ColorDistribution.uniform(2),
        ColorDistribution.uniform(3),
        ColorDistribution([1 / 3, 2 / 3]),
        ColorDistribution([0.1, 0.2, 0.7]),
    ]


def random_distribution(rng, max_k=6, min_k=2):
    k = int(rng.integers(min_k, max_k + 1))
    raw = rng.random(k) + 1e-3
    return ColorDistribution(raw / math.fsum(raw.tolist()))


def dense_adjacency(g):
    a = np.zeros((g.n, g.n))
    a[g.edge_lo, g.edge_hi] = 1.0
    a[g.edge_hi, g.edge_lo] = 1.0
    return a


def dense_b_matrix(g):
    a = dense_adjacency(g)
    k = a.sum(axis=1)
    return a - np.outer(k, k) / (2.0 * g.m)


def check_color(dist, a):
    """One color of ``dist``, through the package's coloring check."""
    return int(validate_coloring([a], K=dist.K)[0])


def centered_kernel(dist, a, b):
    """Same-color indicator of (a, b), centered to zero conditional mean:
    delta_{a,b} - p_a - p_b + p_(2), always in [-2, 2]."""
    a = check_color(dist, a)
    b = check_color(dist, b)
    delta = 1.0 if a == b else 0.0
    return delta - dist.p[a - 1] - dist.p[b - 1] + dist.p2


def cond_second_moment(dist, a):
    """Closed form of E[centered_kernel(a, c)^2] over a random color c."""
    a = check_color(dist, a)
    pa = dist.p[a - 1]
    return pa - 3.0 * pa * pa + 2.0 * dist.p2 * pa - dist.p2 * dist.p2 + dist.p3


def cond_cross_moment(dist, a, b):
    """Closed form of E[centered_kernel(a, c) * centered_kernel(b, c)] over a random c."""
    a = check_color(dist, a)
    b = check_color(dist, b)
    pa = dist.p[a - 1]
    pb = dist.p[b - 1]
    delta = 0.5 * (pa + pb) if a == b else 0.0
    return (
        delta
        - pa * pb
        - pa * pa
        + pa * dist.p2
        - pb * pb
        + pb * dist.p2
        + dist.p3
        - dist.p2 * dist.p2
    )


def martingale_variance_by_wedges(g, colors, dist):
    """Reference for the martingale variance, one term per edge and per wedge.

    Revealing vertices in id order, vertex j with lower neighbours L_j adds
    sum_{i in L_j} E[h(c_i, c)^2] + 2 sum_{i < l in L_j} E[h(c_i, c) h(c_l, c)],
    one cross moment per wedge i-j-l, built from the edge arrays and the
    conditional moments of the distribution, then summed exactly.
    """
    # cond_second_moment and cond_cross_moment of every color (pair), by
    # the same elementwise float operations in the same order.
    p, p2, p3 = dist.p, dist.p2, dist.p3
    second = p - 3.0 * p * p + 2.0 * p2 * p - p2 * p2 + p3
    pa, pb = p[:, None], p[None, :]
    delta = np.where(np.eye(dist.K, dtype=bool), 0.5 * (pa + pb), 0.0)
    cross = delta - pa * pb - pa * pa + pa * p2 - pb * pb + pb * p2 + p3 - p2 * p2
    c = np.asarray(colors) - 1
    terms = [second[c[g.edge_lo]]]
    for j in range(g.n):
        lower = c[g.edge_lo[g.edge_hi == j]]
        i, l = np.triu_indices(lower.size, 1)
        terms.append(2.0 * cross[lower[i], lower[l]])
    return math.fsum(np.concatenate(terms).tolist()) / (g.m * dist.r1)


def v2_rows_by_fractions(colorings_2d, g, dist):
    """Exact martingale variance per coloring row, in rationals of the float p,
    each rounded once.

    Vertex j with L lower neighbours, cnt_c of them colored c, adds
    V_j = T - 2 L R + L^2 p_(3) - (L p_(2) - P)^2 with T = sum_c p_c cnt_c^2,
    R = sum_c cnt_c p_c^2 and P = sum_c cnt_c p_c; a row's sum over j is
    divided by m r1, r1 = p_(2) + p_(2)^2 - 2 p_(3).  With p_c = a_c / s over
    the largest denominator s of p (a power of two), V_j s^4 and r1 s^4 are
    integers: V_j is formed once per distinct count vector, each row adds
    its vertices' values as Python ints, and one true division rounds it.
    """
    n, K, rows = g.n, dist.K, len(colorings_2d)
    p = [Fraction(x) for x in dist.p.tolist()]
    s = max(x.denominator for x in p)
    a = [int(x * s) for x in p]
    q2, q3 = sum(x * x for x in a), sum(x ** 3 for x in a)
    c = np.asarray(colorings_2d, np.int64) - 1
    cells = np.arange(rows)[:, None] * (n * K) + g.edge_hi * K + c[:, g.edge_lo]
    counts = np.bincount(cells.ravel(), minlength=rows * n * K).reshape(rows * n, K)
    # Each count vector as one int64 key, digits base (largest count + 1).
    base = int(counts.max()) + 1
    assert base ** K < 2 ** 63
    _, first, which = np.unique(counts @ base ** np.arange(K), return_index=True,
                                return_inverse=True)
    values = []
    for cnt in counts[first].tolist():
        lower = sum(cnt)
        t = sum(x * k * k for x, k in zip(a, cnt))
        r = sum(x * x * k for x, k in zip(a, cnt))
        big_p = sum(x * k for x, k in zip(a, cnt))
        values.append(t * s ** 3 - 2 * lower * r * s * s + lower * lower * q3 * s
                      - (lower * q2 - big_p * s) ** 2)
    cells = np.repeat(np.arange(rows), n) * len(values) + which
    uses = np.bincount(cells, minlength=rows * len(values)).reshape(rows, -1)
    totals = uses.astype(object) @ np.array(values, dtype=object)
    scale = g.m * (q2 * s * s + q2 * q2 - 2 * q3 * s)
    return np.array([int(total) / scale for total in totals])


def v2_rows_by_int64_keys(colors_2d, g, dist):
    """Reference martingale variance per coloring row, by int64 sort keys.

    Keys j*K + c - 1 as int64, split by ``np.divmod``, run lengths by
    ``np.diff``, lookups by fancy indexing.  Each vertex's V_j is formed
    whole, and a row is their pairwise sum over j; this arithmetic and
    summation order are the ones the library's K >= 3 kernel keeps bit for
    bit.
    """
    n, m, K = g.n, g.m, dist.K
    hi = g.edge_hi
    # A writeable copy: np.take copies a read-only index array on every call.
    lo = g.edge_lo.copy()
    lower_deg = np.bincount(hi, minlength=n).astype(np.float64)
    base = hi * K - 1
    p = dist.p
    cube = p * p * p
    # Summed in color order, the order in which a vertex's runs accumulate,
    # so a vertex that sees every color gets an absent mass of exactly 0.
    p3 = float(np.cumsum(cube)[-1])
    # 16 bytes of budget per edge key keep a block's temporaries near 1 MB,
    # cache-sized and reused, instead of large fresh arrays that page-fault
    # on every chunk.
    step = budget_rows(16 * max(m, n))
    out = []
    for start in range(0, colors_2d.shape[0], step):
        block = colors_2d[start:start + step]
        rows = block.shape[0]
        keys = np.take(block, lo, axis=1).astype(np.int64)
        keys += base
        keys.sort(axis=1)
        first = np.empty(keys.shape, dtype=bool)
        first[:, 0] = True
        np.not_equal(keys[:, 1:], keys[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        cnt = np.diff(starts, append=keys.size)
        j, c = np.divmod(keys.ravel()[starts], K)
        row = starts // m
        pc = p[c]
        e = cnt - lower_deg[j] * pc
        cell = row * n + j
        seen = np.bincount(cell, weights=pc * e * e, minlength=rows * n).reshape(rows, n)
        s3 = np.bincount(cell, weights=cube[c], minlength=rows * n).reshape(rows, n)
        d = np.bincount(cell, weights=cnt * (dist.p2 - pc), minlength=rows * n)
        d = d.reshape(rows, n)
        out.append((seen + (lower_deg * lower_deg * (p3 - s3) - d * d)).sum(axis=1))
    return np.concatenate(out) / (m * dist.r1)


def v2_oracle(colorings_2d, g, dist):
    """The rows the library's martingale variance must equal bit for bit:
    exactly rounded for two colors, the int64-key kernel's for more."""
    return (v2_rows_by_fractions if dist.K == 2 else v2_rows_by_int64_keys)(colorings_2d, g, dist)


def q_by_rows(colors_2d, g, mass_block=1 << 16):
    """Reference Q of each row of a (rows x n) coloring array, row-major.

    The same-color count compares the colors gathered at both ends of
    every edge; the squared degree masses come from one bincount per
    block of rows, row i of a block counting its colors in slots
    i*width .. i*width + width - 1.  This was the library's kernel before
    the colorings were packed into lanes.
    """
    within = np.count_nonzero(
        np.take(colors_2d, g.edge_lo, axis=1) == np.take(colors_2d, g.edge_hi, axis=1), axis=1
    )
    rows, n = colors_2d.shape
    width = int(colors_2d.max()) + 1
    step = min(rows, max(1, mass_block // (n + width)))
    offsets = np.arange(step, dtype=np.int64)[:, None] * width
    weights = np.tile(g.degrees.astype(np.float64), step)
    sumd2 = np.empty(rows)
    for a in range(0, rows, step):
        block = colors_2d[a:a + step]
        b = block.shape[0]
        slots = (block + offsets[:b]).reshape(-1)
        mass = np.bincount(slots, weights=weights[:b * n], minlength=b * width).reshape(b, width)
        sumd2[a:a + b] = np.einsum("ij,ij->i", mass, mass)
    m = g.m
    return within / m - sumd2 / (4.0 * m * m)


def words_by_full_mix(states):
    """Reference 53-bit words of stream states: the whole splitmix64
    finalizer, then the top 53 bits, on a copy of ``states``."""
    z = np.array(states, dtype=np.uint64)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mul)
    z ^= z >> np.uint64(31)
    return z >> np.uint64(11)


def states_of_words(words, low=0):
    """Half-mixed states (``rng.half_mix``) whose 53-bit words are ``words``,
    with the 11 bits a word drops set to ``low``: the finalizer's last step
    z ^= z >> 31 is undone by z ^ z >> 31 ^ z >> 62."""
    w = (np.asarray(words, dtype=np.uint64) << np.uint64(11)) | np.uint64(low)
    return w ^ (w >> np.uint64(31)) ^ (w >> np.uint64(62))


def colors_by_guide_table(dist, words):
    """Reference color lookup on 53-bit words: the library's before colors
    were read from half-mixed states.  A guide table maps each word's top
    16 bits to its color when the whole bucket gets one, else to 0, and
    the words of those ambiguous buckets are searched in the thresholds."""
    thresholds = np.ceil(np.cumsum(dist.p)[:-1] * 2.0 ** 53).astype(np.uint64)
    edges = np.arange(2 ** 16 + 1, dtype=np.uint64) << np.uint64(37)
    lo = np.searchsorted(thresholds, edges[:-1], side="right")
    hi = np.searchsorted(thresholds, edges[1:], side="left")
    table = np.where(lo == hi, lo + 1, 0)
    colors = table[(words >> np.uint64(37)).astype(np.int64)]
    open_ = colors == 0
    colors[open_] = np.searchsorted(thresholds, words[open_], side="right") + 1
    return colors


def q_lanes_by_warren(colors, count, g):
    """Reference Q of the first ``count`` columns of a packed n x r lane array
    (``moments._q_lanes``'s input): the library's kernel before lanes were
    compared by equality and K=2 masses read from degree bit planes.

    The words at both ends of every edge are XORed, and with L the low bits
    of every lane, ~(((x & L) + L) | x | L) keeps a lane's top bit exactly
    when the lane is zero (Warren, *Hacker's Delight*, 2nd ed., 2013,
    sec. 6-1); lane sums of blocks of at most 2**bits - 1 edges, then one
    weighted bincount of the degree masses per replicate.
    """
    m = g.m
    bits = 8 * colors.itemsize
    packed = colors.view(np.uint64)
    x = packed[g.edge_lo] ^ packed[g.edge_hi]
    low = np.full(8 // colors.itemsize, np.iinfo(colors.dtype).max >> 1, colors.dtype)
    low = low.view(np.uint64)[0]
    zero = ~(((x & low) + low) | x | low) >> np.uint64(bits - 1)
    block = (1 << bits) - 1
    same = np.zeros(colors.shape[1], np.int64)
    for a in range(0, m, block):
        sums = zero[a:a + block].sum(axis=0, dtype=np.uint64)
        same += sums.view(colors.dtype).astype(np.int64)
    width = int(colors.max()) + 1
    mass = np.stack([np.bincount(colors[:, j], weights=g._deg_float, minlength=width)
                     for j in range(count)])
    sumd2 = np.einsum("ij,ij->i", mass, mass)
    return same[:count] / m - sumd2 / (4.0 * m * m)


def colors_by_float_lookup(dist, u):
    """Reference color lookup: float inverse CDF on uniforms ``u`` in [0, 1).

    Color k + 1 for the count k of cumulative sums <= u; +inf in the last
    slot absorbs the rounding of the sum, so every uniform gets a color.
    """
    cum = np.cumsum(dist.p)
    cum[-1] = np.inf
    return np.searchsorted(cum, u, side="right") + 1


def frobenius_by_matrix_product(g):
    """Reference for common_neighbor_frobenius: form A^2 as a sparse product."""
    rows = np.concatenate([g.edge_lo, g.edge_hi])
    cols = np.concatenate([g.edge_hi, g.edge_lo])
    a = sparse.csr_matrix(
        (np.ones(rows.shape[0], dtype=np.int64), (rows, cols)), shape=(g.n, g.n)
    )
    two_hop = a @ a
    return int(np.sum(two_hop.data.astype(np.int64) ** 2))


_DIRECTIVE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def parse_edge_list_by_lines(text):
    """Reference edge-list parser: one Python pass over the lines, a set of
    seen edges, and the first ``# n=`` directive bounding every line.  A
    vertex count beyond the int64 entries numpy can size is refused at
    the line that sets it: the directive's, or the first with the largest id."""
    lines = text.splitlines()
    directives = ((ln, _DIRECTIVE.match(raw.strip())) for ln, raw in enumerate(lines, start=1))
    n_line, declared_n = next(((ln, int(match.group(1))) for ln, match in directives if match),
                              (None, None))
    edges = []
    seen = set()
    max_id = -1
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
            raise InputError(f"line {ln}: vertex id {max(u, v)} >= n={declared_n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise InputError(f"line {ln}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
        edges.append(key)
        if max(u, v) > max_id:
            max_id, max_line = max(u, v), ln
    if not edges:
        raise InputError("edge list contains no edges")
    if declared_n is None:
        n_line, declared_n = max_line, max_id + 1
    most = (2**63 - 1) // 8
    if declared_n > most:
        raise InputError(f"line {n_line}: n={declared_n} vertices, but an int64 array holds "
                         f"at most {most} entries")
    return Graph(declared_n, edges)


def write_edge_list_by_lines(g):
    """Reference writer: the directive, then one f-string per edge, joined."""
    lines = [f"# n={g.n}"]
    lines.extend(f"{int(u)} {int(v)}" for u, v in zip(g.edge_lo, g.edge_hi))
    return "\n".join(lines) + "\n"


def chung_lu(n, mean_degree, tail, seed):
    """Heavy-tailed simple graph: endpoints drawn in proportion to Pareto(tail)
    weights, self-loops and repeats dropped."""
    rng = np.random.default_rng(seed)
    w = ((np.arange(n) + 0.5) / n) ** (-1.0 / tail)
    p = w / w.sum()
    draws = int(n * mean_degree / 2)
    a = rng.choice(n, size=draws, p=p)
    b = rng.choice(n, size=draws, p=p)
    keep = a != b
    pairs = np.unique(np.column_stack([np.minimum(a, b), np.maximum(a, b)])[keep], axis=0)
    return Graph(n, pairs)


def complete_graph(n):
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def complete_bipartite(a, b):
    left, right = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return Graph(a + b, np.column_stack([left.ravel(), right.ravel()]))


def csv_text(header, rows):
    """Reference CSV writer: the header and one comma-joined line per row of
    Python values, all built as one string.  The CLI wrote its CSVs this way
    before it wrote them from columns."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _atom(v) for v in row))
    return "\n".join(lines) + "\n"


def ks_by_full_grids(cdf_at_sorted):
    """Reference Kolmogorov distance from the CDF at the sorted sample, in one
    pass: both empirical-CDF grids are built whole, so each gap is the
    literal float count/n - cdf."""
    n = cdf_at_sorted.size
    above = np.arange(1, n + 1, dtype=np.float64) / n
    below = np.arange(0, n, dtype=np.float64) / n
    return max(float(np.max(above - cdf_at_sorted)), float(np.max(cdf_at_sorted - below)))
