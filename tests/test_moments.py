import functools
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_bipartite,
    complete_graph,
    cond_cross_moment,
    cond_second_moment,
    dense_b_matrix,
    martingale_variance_by_wedges,
    random_distribution,
    standard_distributions,
    v2_oracle,
    v2_rows_by_fractions,
)
from modnull import (
    ColorDistribution,
    DomainError,
    Graph,
    InputError,
    center_decompose,
    exact_moments_by_enumeration,
    gen_er,
    gen_regular,
    martingale_variance,
    martingale_variance_samples,
    modularity,
    moments,
    null_moments,
    null_q_samples,
    rng,
    simulation,
)
from modnull.generators import parse_generator_spec
from modnull.moments import _chunking
from modnull.rng import stream_seed


def modularity_bruteforce(g, colors):
    """Double sum of B_ij over same-color ordered pairs, diagonal included."""
    b = dense_b_matrix(g)
    c = np.asarray(colors)
    same = (c[:, None] == c[None, :]).astype(float)
    return float((b * same).sum() / (2.0 * g.m))


def enumeration_bruteforce(g, dist):
    """Independent tiny enumeration via itertools, for validating the package oracle."""
    qs, ws = [], []
    for coloring in product(range(1, dist.K + 1), repeat=g.n):
        ws.append(math.prod(dist.p[c - 1] for c in coloring))
        qs.append(modularity_bruteforce(g, coloring))
    total = math.fsum(ws)
    mean = math.fsum(w * q for w, q in zip(ws, qs)) / total
    var = math.fsum(w * (q - mean) ** 2 for w, q in zip(ws, qs)) / total
    return mean, var


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def test_modularity_examples(triangle, path3):
    assert modularity(triangle, [1, 2, 2]) == pytest.approx(-2 / 9, abs=1e-15)
    assert modularity(path3, [1, 1, 2]) == pytest.approx(-1 / 8, abs=1e-15)
    assert modularity(triangle, [1, 1, 1]) == 0.0


def test_modularity_matches_bruteforce(small_graphs):
    rng = np.random.default_rng(3)
    for g in small_graphs:
        for _ in range(5):
            colors = rng.integers(1, 4, size=g.n)
            q = modularity(g, colors)
            assert q == pytest.approx(modularity_bruteforce(g, colors), abs=1e-12)
            assert -1.0 < q < 1.0


def test_modularity_validation(triangle):
    with pytest.raises(InputError):
        modularity(triangle, [1, 2])
    with pytest.raises(InputError):
        modularity(triangle, [0, 1, 1])


def test_b_matrix_rows_sum_to_zero(small_graphs):
    for g in small_graphs:
        b = dense_b_matrix(g)
        assert np.max(np.abs(b.sum(axis=0))) < 1e-12
        assert np.max(np.abs(b.sum(axis=1))) < 1e-12


def test_b_sums_match_dense(small_graphs):
    d = ColorDistribution([0.3, 0.7])
    for g in small_graphs:
        b = dense_b_matrix(g)
        mom = null_moments(g, d)
        off = float((b ** 2).sum() - (np.diag(b) ** 2).sum())
        assert rel_err(mom.sum_offdiag_B2, off) < 1e-12
        assert rel_err(mom.sum_diag_B2, float((np.diag(b) ** 2).sum())) < 1e-12


def dense_closed_forms():
    """K_n and K_{a,b} with their B sums as exact rationals."""
    n = 1500
    yield "K_1500", complete_graph(n), Fraction(n - 1, n), Fraction((n - 1) ** 2, n)
    a, b = 700, 800
    off = (
        Fraction(a * b, 2)
        + a * (a - 1) * Fraction(b, 2 * a) ** 2
        + b * (b - 1) * Fraction(a, 2 * b) ** 2
    )
    yield "K_700_800", complete_bipartite(a, b), off, a * Fraction(b, 2 * a) ** 2 + b * Fraction(
        a, 2 * b
    ) ** 2


@pytest.mark.parametrize("name,g,off,diag", dense_closed_forms(), ids=lambda x: x if isinstance(x, str) else "")
def test_dense_moments_match_exact_closed_forms(name, g, off, diag):
    # The off-diagonal sum is about 1 while its terms are about m: computed
    # term by term in floats it kept only ~1e-10 relative accuracy on K_1500.
    d = ColorDistribution([0.1, 0.2, 0.7])
    mom = null_moments(g, d)
    m = g.m
    assert rel_err(mom.sum_offdiag_B2, float(off)) < 1e-12
    assert rel_err(mom.sum_diag_B2, float(diag)) < 1e-12
    sigma2 = Fraction(d.r1) / (2 * m * m) * off + Fraction(d.r2) / (m * m) * diag
    assert rel_err(mom.sigma2, float(sigma2)) < 1e-12


def test_null_moments_triangle_pinned(triangle):
    d = ColorDistribution([1 / 3, 2 / 3])
    mom = null_moments(triangle, d)
    # frozen from the enumeration oracle; fractions are exact
    assert mom.mu == pytest.approx(float(Fraction(-4, 27)), abs=1e-15)
    assert mom.sigma2 == pytest.approx(float(Fraction(8, 729)), abs=1e-15)
    assert mom.delta2 == pytest.approx(float(Fraction(16, 243)), abs=1e-15)
    mu_e, var_e = exact_moments_by_enumeration(triangle, d)
    assert rel_err(mom.mu, mu_e) < 1e-12
    assert rel_err(mom.sigma2, var_e) < 1e-12


def test_null_moments_single_edge(single_edge):
    d = ColorDistribution.uniform(2)
    mom = null_moments(single_edge, d)
    assert mom.mu == pytest.approx(-0.25, abs=1e-15)
    mu_e, var_e = exact_moments_by_enumeration(single_edge, d)
    assert rel_err(mom.mu, mu_e) < 1e-13
    assert rel_err(mom.sigma2, var_e) < 1e-13


def test_null_moments_degenerate_distribution(triangle):
    mom = null_moments(triangle, ColorDistribution.uniform(1))
    assert (mom.mu, mom.sigma2, mom.delta2) == (0.0, 0.0, 0.0)


def test_null_moments_sign_and_composition(small_graphs):
    for g in small_graphs:
        for d in standard_distributions():
            mom = null_moments(g, d)
            assert mom.mu <= 0.0
            assert mom.sigma2 >= 0.0
            assert mom.delta2 == d.r1 / g.m
            recomposed = (
                mom.r1 / (2 * g.m * g.m) * mom.sum_offdiag_B2
                + mom.r2 / (g.m * g.m) * mom.sum_diag_B2
            )
            assert recomposed == mom.sigma2


def test_enumeration_oracle_vs_independent_bruteforce(triangle, star3):
    for g, d in ((triangle, ColorDistribution([1 / 3, 2 / 3])),
                 (star3, ColorDistribution.uniform(2))):
        mu_pkg, var_pkg = exact_moments_by_enumeration(g, d)
        mu_ref, var_ref = enumeration_bruteforce(g, d)
        assert mu_pkg == pytest.approx(mu_ref, abs=1e-14)
        assert var_pkg == pytest.approx(var_ref, abs=1e-14)


def test_closed_form_matches_enumeration(small_graphs):
    for g in small_graphs:
        for d in standard_distributions():
            mom = null_moments(g, d)
            mu_e, var_e = exact_moments_by_enumeration(g, d)
            assert rel_err(mom.mu, mu_e) < 1e-11
            assert rel_err(mom.sigma2, var_e) < 1e-11


small_graphs_and_distributions = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sampled_from([(u, v) for v in range(n) for u in range(v)]),
                 min_size=1, unique=True),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3),
    )
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_graphs_and_distributions)
def test_closed_form_matches_enumeration_property(case):
    n, edges, weights = case
    g = Graph(n, edges)
    d = ColorDistribution(np.array(weights) / math.fsum(weights))
    mom = null_moments(g, d)
    mu_e, var_e = exact_moments_by_enumeration(g, d)
    assert rel_err(mom.mu, mu_e) < 1e-11
    assert rel_err(mom.sigma2, var_e) < 1e-11


def test_enumeration_guard():
    g = gen_regular(30, 2, 1)
    with pytest.raises(DomainError):
        exact_moments_by_enumeration(g, ColorDistribution.uniform(2))


def test_decomposition_identity_examples(triangle, path3):
    d = ColorDistribution([1 / 3, 2 / 3])
    dec = center_decompose(triangle, [1, 2, 2], d)
    q = modularity(triangle, [1, 2, 2])
    mom = null_moments(triangle, d)
    assert dec.reconstructed_Q == pytest.approx(q, abs=1e-12)
    assert dec.constant_term == pytest.approx(mom.mu, abs=1e-15)
    assert dec.kernel_term + dec.degree_term == pytest.approx(q - mom.mu, abs=1e-12)

    emp = ColorDistribution.from_coloring([1, 1, 2])
    dec = center_decompose(path3, [1, 1, 2], emp)
    assert dec.reconstructed_Q == pytest.approx(-1 / 8, abs=1e-12)


def test_decomposition_vanishes_for_one_color(triangle):
    dec = center_decompose(triangle, [1, 1, 1], ColorDistribution.uniform(1))
    assert dec.constant_term == 0.0
    assert abs(dec.kernel_term) < 1e-15
    assert abs(dec.degree_term) < 1e-15


def test_decomposition_identity_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(4, 20))
        g = gen_er(n, 0.4, seed=int(rng.integers(0, 2 ** 32)))
        d = random_distribution(rng, max_k=5)
        colors = d.sample_coloring(g.n, int(rng.integers(0, 2 ** 32)))
        dec = center_decompose(g, colors, d)
        q = modularity(g, colors)
        assert rel_err(dec.reconstructed_Q, q) < 1e-10 or abs(dec.reconstructed_Q - q) < 1e-12


def test_martingale_variance_single_edge(single_edge):
    u2 = ColorDistribution.uniform(2)
    assert martingale_variance(single_edge, [1, 2], u2) == pytest.approx(1.0, abs=1e-15)
    assert martingale_variance(single_edge, [2, 2], u2) == pytest.approx(1.0, abs=1e-15)


def test_martingale_variance_matches_direct_formula(cycle5):
    # direct evaluation of the filtration sum, scalar and independent
    d = ColorDistribution([0.2, 0.5, 0.3])
    colors = [1, 3, 2, 2, 1]
    total = 0.0
    for j in range(cycle5.n):
        lower = sorted(int(i) for i, k in zip(cycle5.edge_lo, cycle5.edge_hi) if k == j)
        for i in lower:
            total += cond_second_moment(d, colors[i])
        for x in range(len(lower)):
            for y in range(x + 1, len(lower)):
                total += 2.0 * cond_cross_moment(d, colors[lower[x]], colors[lower[y]])
    expected = total / (cycle5.m ** 2 * (d.r1 / cycle5.m))
    assert martingale_variance(cycle5, colors, d) == pytest.approx(expected, abs=1e-13)


def heavy_tailed_graph(n=400, mean_degree=6.0, tail=1.3, seed=5):
    """Chung-Lu graph with Pareto expected degrees, hubs at random ids."""
    rng = np.random.default_rng(seed)
    w = rng.pareto(tail, n) + 1.0
    w = np.minimum(w * mean_degree / w.mean(), n / 3)
    link = np.triu(rng.random((n, n)) < np.minimum(np.outer(w, w) / w.sum(), 1.0), 1)
    lo, hi = np.nonzero(link)
    return Graph(n, np.stack([lo, hi], axis=1))


MARTINGALE_GRAPHS = {
    "heavy_tailed": heavy_tailed_graph,
    "complete_40": lambda: Graph(40, [(i, j) for i in range(40) for j in range(i + 1, 40)]),
    "er_40_half": lambda: gen_er(40, 0.5, seed=17),
}
MARTINGALE_DISTRIBUTIONS = {
    "uniform_2": lambda: ColorDistribution.uniform(2),
    "skewed_3": lambda: ColorDistribution([0.05, 0.15, 0.8]),
    "uniform_100": lambda: ColorDistribution.uniform(100),
}


@pytest.mark.parametrize("dist_name", MARTINGALE_DISTRIBUTIONS)
@pytest.mark.parametrize("graph_name", MARTINGALE_GRAPHS)
def test_martingale_variance_matches_wedge_oracle(graph_name, dist_name):
    g = MARTINGALE_GRAPHS[graph_name]()
    d = MARTINGALE_DISTRIBUTIONS[dist_name]()
    if graph_name == "heavy_tailed":
        assert g.summary.kmax >= 40
    samples = martingale_variance_samples(g, d, 6, 3)
    for r, value in enumerate(samples):
        row = d.sample_coloring(g.n, stream_seed(3, r))
        want = martingale_variance_by_wedges(g, row, d)
        assert rel_err(value, want) < 1e-12
        assert rel_err(martingale_variance(g, row, d), want) < 1e-12


KERNEL_GRAPHS = {"er:p=0.05": 300, "hub:p=0.01": 500, "reg:d=6": 400, "er:p=0.5": 120}
# Five edges on many vertices: n * K passes 2**32 (int64 keys) or meets it
# exactly (the largest uint32 key is 2**32 - 1).
WIDE_KEY_GRAPHS = {
    70000: Graph(70000, [(0, 69999), (1, 69999), (5, 69998), (69997, 69999), (2, 3)]),
    65536: Graph(65536, [(0, 65535), (1, 65535), (5, 65534), (65533, 65535), (2, 3)]),
}


@functools.cache
def kernel_graph(spec, n):
    return parse_generator_spec(spec).build(n, 4)


def kernel_distribution(K, kind):
    if kind == "uniform":
        return ColorDistribution.uniform(K)
    raw = np.random.default_rng(K).random(K) + 1e-3
    return ColorDistribution(raw / math.fsum(raw.tolist()))


def assert_v2_kernel_matches_oracle(g, d, budget, monkeypatch, reps=24, threads=1):
    """Bit-identical rows from the sampler, whose colorings are replicates
    0..reps-1 of seed 9, and from one of those colorings at a time: exactly
    rounded for two colors, the int64-key oracle's for more."""
    monkeypatch.setattr(rng, "BUDGET", budget)
    colorings = np.stack([d.sample_coloring(g.n, stream_seed(9, r)) for r in range(reps)])
    want = v2_oracle(colorings, g, d)
    assert np.array_equal(martingale_variance_samples(g, d, reps, 9, threads), want)
    assert np.array_equal([martingale_variance(g, row, d) for row in colorings], want)


@pytest.mark.parametrize("budget", [2 << 20, 4096])
@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("K", [2, 3, 5, 32, 255, 256, 300])
@pytest.mark.parametrize("spec", KERNEL_GRAPHS)
def test_v2_kernel_is_bit_identical_to_int64_key_oracle(spec, K, kind, budget, monkeypatch):
    g = kernel_graph(spec, KERNEL_GRAPHS[spec])
    assert_v2_kernel_matches_oracle(g, kernel_distribution(K, kind), budget, monkeypatch)


@pytest.mark.parametrize("spec, n, probs", [
    pytest.param("er:p=0.05", 300, (0.5, 0.5), id="er-uniform_2"),
    pytest.param("er:p=0.05", 300, (0.05, 0.15, 0.8), id="er-skewed_3"),
    pytest.param("hub:p=0.02", 400, (0.1, 0.9), id="hub-skewed_2"),
    # r1 ~ 4e-6: float constants cancel and put the rows 7.1e-9 off.
    pytest.param("er:p=0.05", 300, (1e-3, 1 - 1e-3), id="er-lopsided_2"),
    pytest.param("hub:p=0.02", 400, (1e-3, 1 - 1e-3), id="hub-lopsided_2"),
])
def test_martingale_variance_matches_exact_rationals(spec, n, probs):
    # Two colors are exactly rounded; more colors agree to 1e-13.
    g = kernel_graph(spec, n)
    d = ColorDistribution(list(probs))
    rows = np.stack([d.sample_coloring(g.n, stream_seed(5, r)) for r in range(6)])
    want = v2_rows_by_fractions(rows, g, d)
    for got in (martingale_variance_samples(g, d, 6, 5),
                np.array([martingale_variance(g, row, d) for row in rows])):
        if d.K == 2:
            assert np.array_equal(got, want)
        else:
            assert max(rel_err(x, y) for x, y in zip(got, want)) < 1e-13


@pytest.mark.parametrize("budget", [2 << 20, 4096])
@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", WIDE_KEY_GRAPHS)
def test_v2_kernel_is_bit_identical_at_the_key_width_switch(n, kind, budget, monkeypatch):
    d = kernel_distribution(n, kind)
    assert (n * d.K > 2 ** 32) == (n == 70000)
    assert_v2_kernel_matches_oracle(WIDE_KEY_GRAPHS[n], d, budget, monkeypatch)


def top_vertex_graph(lower):
    """A path on vertices 0..lower+38 and the top vertex lower+39 joined to
    the first ``lower`` of them: its lower ends take one segment of 255 (at
    255) or more, added again as integers, and at 4 KiB more than one
    gather (above 255)."""
    n = lower + 40
    path = np.arange(n - 2)
    return Graph(n, np.concatenate([np.column_stack([path, path + 1]),
                                    np.column_stack([np.arange(lower), np.full(lower, n - 1)])]))


@pytest.mark.parametrize("budget", [2 << 20, 4096])
@pytest.mark.parametrize("probs", [(0.5, 0.5), (1e-3, 1 - 1e-3)])
@pytest.mark.parametrize("reps", [1, 7, 24, 29])
@pytest.mark.parametrize("graph", [255, 256, 300, "hub:p=0.01"])
def test_v2_lane_counts_are_bit_identical_to_int64_key_oracle(graph, reps, probs, budget,
                                                              monkeypatch):
    # Two colors go through lane counts: replicate counts that leave
    # padding lanes, a nearly degenerate p, and lower neighbourhoods cut
    # into segments of 255, through the sampler on two threads.
    g = top_vertex_graph(graph) if isinstance(graph, int) else kernel_graph(graph, 500)
    if isinstance(graph, int):
        assert np.bincount(g.edge_hi).max() == graph
    assert_v2_kernel_matches_oracle(g, ColorDistribution(list(probs)), budget, monkeypatch,
                                    reps, threads=2)


def test_one_coloring_builds_no_lane_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("lane tables built for one coloring")

    monkeypatch.setattr(moments, "_v2_tables", refuse)
    g = kernel_graph("reg:d=6", 400)
    d = ColorDistribution.uniform(2)
    row = d.sample_coloring(g.n, 1)
    assert martingale_variance(g, row, d) == v2_rows_by_fractions(row[None, :], g, d)[0]


def test_refused_martingale_runs_build_no_lane_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("lane tables built for a refused run")

    monkeypatch.setattr(moments, "_v2_tables", refuse)
    monkeypatch.setattr(simulation, "_v2_tables", refuse)
    g = kernel_graph("reg:d=6", 400)
    one_color = ColorDistribution([1.0, 0.0])
    with pytest.raises(DomainError):
        martingale_variance_samples(g, one_color, 8, 1)
    with pytest.raises(DomainError):
        martingale_variance(g, np.ones(g.n, np.int64), one_color)
    for reps, threads in ((0, 1), (8, 0)):
        with pytest.raises(InputError):
            martingale_variance_samples(g, ColorDistribution.uniform(2), reps, 1, threads)


@functools.cache
def exact_reg_rows(reps):
    """Exact rows of replicates 0..reps-1 of seed 3, two uniform colors, on
    reg:d=6 with n = 2000; no budget moves them."""
    g = kernel_graph("reg:d=6", 2000)
    d = ColorDistribution.uniform(2)
    return v2_rows_by_fractions(
        np.stack([d.sample_coloring(g.n, stream_seed(3, r)) for r in range(reps)]), g, d)


@pytest.mark.parametrize("budget", [4096, 16384, 65536, 256 << 10, 1 << 20, 2 << 20])
def test_v2_scratch_covers_every_chunk_width(budget, monkeypatch):
    # Every last-chunk width, at every budget: each two-color chunk gets
    # exactly the scratch of _chunking, which holds every vertex's run of
    # lower ends, and the rows are exactly rounded.
    monkeypatch.setattr(rng, "BUDGET", budget)
    g = kernel_graph("reg:d=6", 2000)
    d = ColorDistribution.uniform(2)
    kernel = simulation._v2_lanes
    sizes = set()

    def spy(colors, count, g, dist, tables, work):
        sizes.add(work.size)
        return kernel(colors, count, g, dist, tables, work)

    monkeypatch.setattr(simulation, "_v2_lanes", spy)
    rows, words = _chunking(g.n, 8)
    want = exact_reg_rows(2 * rows)
    for groups in range(1, rows // 8 + 1):
        reps = rows + 8 * groups
        assert np.array_equal(martingale_variance_samples(g, d, reps, 3), want[:reps])
    assert sizes == {words}


def test_martingale_variance_errors(triangle):
    with pytest.raises(DomainError):
        martingale_variance(triangle, [1, 1, 1], ColorDistribution.uniform(1))
    with pytest.raises(DomainError):
        Graph(3, [])  # no-edge graphs cannot exist, the m = 0 case is unreachable


def test_martingale_variance_mean_is_one():
    g = gen_regular(120, 4, 7)
    d = ColorDistribution.uniform(3)
    v2 = martingale_variance_samples(g, d, 4000, 2222)
    se = v2.std(ddof=1) / math.sqrt(v2.size)
    assert abs(v2.mean() - 1.0) <= 4 * se


def test_monte_carlo_consistency_with_exact_moments():
    g = gen_regular(100, 6, 11)
    d = ColorDistribution.uniform(2)
    mom = null_moments(g, d)
    q = null_q_samples(g, d, 200000, 314159, threads=2)
    se_mean = q.std(ddof=1) / math.sqrt(q.size)
    assert abs(q.mean() - mom.mu) <= 4 * se_mean
    var = q.var(ddof=1)
    centered = q - q.mean()
    m4 = np.mean(centered ** 4)
    se_var = math.sqrt(max(m4 - var ** 2, 0.0) / q.size)
    assert abs(var - mom.sigma2) <= 4 * se_var


def test_offdiag_normalization_trend():
    d = ColorDistribution.uniform(2)
    gaps, ratio_gaps = [], []
    for n in (100, 400, 1600):
        g = gen_regular(n, 6, 13)
        mom = null_moments(g, d)
        gaps.append(abs(mom.sum_offdiag_B2 / (2 * g.m) - 1.0))
        ratio_gaps.append(abs(mom.sigma2 / mom.delta2 - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert ratio_gaps[0] > ratio_gaps[1] > ratio_gaps[2]


def test_sigma_delta_ratio_trend_skewed_distribution():
    d = ColorDistribution([1 / 3, 2 / 3])
    gaps = []
    for n in (100, 400, 1600):
        g = gen_regular(n, 6, 13)
        mom = null_moments(g, d)
        gaps.append(abs(mom.sigma2 / mom.delta2 - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
