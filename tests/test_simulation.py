import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import special

from conftest import (colors_by_guide_table, ks_by_full_grids, q_by_rows, q_lanes_by_warren,
                      states_of_words, v2_rows_by_int64_keys, words_by_full_mix)

from modnull import (
    ColorDistribution,
    DomainError,
    Graph,
    InputError,
    be_rate_study,
    gen_er,
    gen_hub,
    gen_regular,
    ks_distance,
    ks_distance_uniform,
    martingale_variance,
    martingale_variance_samples,
    modularity,
    null_moments,
    null_q_samples,
    significance_test,
    simulate_null,
    slln_study,
    rng,
    std_normal_cdf,
)
from modnull.colors import lane_dtype, validate_coloring
from modnull.moments import _chunking, _edge_block, _q_lanes, _q_of_rows, _q_tables
from modnull.rng import stream_seed, stream_seed_array, stream_steps
from modnull.simulation import (
    _MAXLOG, _erfc, _phi_array, _sample_rows, _size_seeds, upper_p_value,
)


def ks_bruteforce(samples):
    """Double-loop empirical-CDF comparison; exact reference for ks_distance."""
    xs = sorted(samples)
    n = len(xs)
    best = 0.0
    for t in xs:
        at_most = sum(1 for x in xs if x <= t) / n
        below = sum(1 for x in xs if x < t) / n
        phi = std_normal_cdf(t)
        best = max(best, abs(at_most - phi), abs(below - phi))
    return best


def test_phi_basic_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
    tail = std_normal_cdf(-10.0)
    # asymptotic envelope: phi(10)/10 * (1 - 1/100) <= tail <= phi(10)/10
    density = math.exp(-50.0) / math.sqrt(2 * math.pi)
    assert tail < 1e-22
    assert density / 10.0 * (1 - 0.01) <= tail <= density / 10.0


def test_phi_symmetry_grid():
    for x in np.linspace(-8.0, 8.0, 321):
        assert abs(std_normal_cdf(float(x)) + std_normal_cdf(float(-x)) - 1.0) <= 1e-14


def test_phi_scalar_vs_array():
    xs = np.linspace(-6, 6, 101)
    vec = 0.5 * special.erfc(-xs / math.sqrt(2.0))
    for x, v in zip(xs, vec):
        assert std_normal_cdf(float(x)) == float(v)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _neighbors(x, steps):
    """The 2 * steps + 1 doubles around each of x, by walking the bit pattern."""
    x = np.asarray(x, dtype=np.float64)
    return (x.view(np.int64)[:, None] + np.arange(-steps, steps + 1)).reshape(-1).view(np.float64)


ERFC_SPECIALS = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
     np.inf, -np.inf, np.nan, 27.0, -27.0, 37.5, -37.5]
)


def test_erfc_port_is_bit_identical_to_scipy():
    draws = np.random.default_rng(20240417)
    edges = np.array([1.0, 8.0, math.sqrt(_MAXLOG), 26.6])
    xs = np.concatenate([
        draws.normal(size=400_000),
        draws.normal(scale=math.sqrt(4.5), size=400_000),
        draws.uniform(-40.0, 40.0, size=400_000),
        _neighbors(np.concatenate([edges, -edges]), 2000),
        np.linspace(-27.0, 27.0, 200_001),
        ERFC_SPECIALS,
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _erfc(xs)
    want = special.erfc(xs)
    assert got.shape == xs.shape
    bad = np.flatnonzero(_bits(got) != _bits(want))
    assert bad.size == 0, list(zip(xs[bad][:5], got[bad][:5], want[bad][:5]))


def test_erfc_port_scalars_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ERFC_SPECIALS.tolist() + [0.5, -0.999, 1.0, -8.0, 26.55]:
            for arg in (v, np.float64(v), np.array(v)):
                got = _erfc(arg)
                assert np.ndim(got) == 0
                assert _bits(got) == _bits(special.erfc(arg)), v
        grid = np.linspace(-30.0, 30.0, 24).reshape(2, 3, 4)
        assert np.array_equal(_bits(_erfc(grid)), _bits(special.erfc(grid)))
        assert _erfc(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("module", ["modnull", "modnull.cli"])
def test_import_does_not_load_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_ks_single_sample_at_zero():
    assert ks_distance([0.0]) == 0.5


def test_ks_perfectly_placed_atoms():
    n = 40
    # atoms at the normal quantiles of (i - 1/2)/n leave gaps of exactly 1/(2n)
    targets = (np.arange(1, n + 1) - 0.5) / n
    atoms = special.ndtri(targets)
    assert ks_distance(atoms) == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_empty_and_bruteforce():
    with pytest.raises(InputError):
        ks_distance([])
    rng = np.random.default_rng(2)
    for size in (1, 7, 100, 1000):
        x = rng.normal(size=size)
        assert ks_distance(x) == ks_bruteforce(x)
    # ties: heavy rounding forces duplicates
    x = np.round(rng.normal(size=400), 1)
    assert ks_distance(x) == ks_bruteforce(x)


def test_ks_uniform_variant():
    n = 25
    grid = (np.arange(1, n + 1) - 0.5) / n
    assert ks_distance_uniform(grid) == pytest.approx(0.5 / n, abs=1e-15)
    with pytest.raises(InputError):
        ks_distance_uniform([0.2, 1.2])
    with pytest.raises(InputError):
        ks_distance_uniform([])


@pytest.mark.parametrize("budget", [1, 128 * 7, 128 * 64])
def test_ks_does_not_depend_on_the_block_size(monkeypatch, budget):
    # Blocks of 1, 7 and 64 values against the one-pass grids of the whole sample.
    gen = np.random.default_rng(4)
    z = np.concatenate([gen.normal(size=450), np.round(gen.normal(size=50), 1)])
    u = np.concatenate([gen.random(size=450), [0.0, 1.0, 0.5, 0.5]])
    expected = (ks_by_full_grids(_phi_array(np.sort(z))), ks_by_full_grids(np.sort(u)))
    monkeypatch.setattr(rng, "BUDGET", budget)
    assert (ks_distance(z), ks_distance_uniform(u)) == expected


def test_simulate_null_determinism_and_threads():
    g = gen_regular(100, 4, 6)
    d = ColorDistribution.uniform(2)
    s1 = simulate_null(g, d, 600, 42)
    s2 = simulate_null(g, d, 600, 42)
    s8 = simulate_null(g, d, 600, 42, threads=8)
    assert np.array_equal(s1.samples, s2.samples)
    assert np.array_equal(s1.samples, s8.samples)
    assert s1.ks == s8.ks
    assert not np.array_equal(s1.samples, simulate_null(g, d, 600, 43).samples)


def test_simulate_null_replicates_use_documented_streams():
    g = gen_regular(60, 4, 6)
    d = ColorDistribution([0.25, 0.3, 0.45])
    q = null_q_samples(g, d, 5, 2024)
    for r in range(5):
        colors = d.sample_coloring(g.n, stream_seed(2024, r))
        assert modularity(g, colors) == q[r]


def test_simulate_null_calibration():
    g = gen_regular(300, 6, 15)
    d = ColorDistribution.uniform(2)
    reps = 5000
    s = simulate_null(g, d, reps, 77, standardization="sigma")
    assert abs(s.mean) <= 4 / math.sqrt(reps)
    assert abs(s.variance - 1.0) <= 0.05
    s_delta = simulate_null(g, d, reps, 77, standardization="delta")
    mom = s.moments
    assert np.allclose(
        s_delta.samples, s.samples * (mom.sigma / mom.delta), rtol=1e-12, atol=1e-12
    )


def test_simulate_null_errors():
    g = gen_regular(20, 2, 3)
    with pytest.raises(DomainError):
        simulate_null(g, ColorDistribution.uniform(1), 10, 0)
    with pytest.raises(InputError):
        simulate_null(g, ColorDistribution.uniform(2), 0, 0)
    with pytest.raises(InputError):
        simulate_null(g, ColorDistribution.uniform(2), 10, 0, standardization="both")
    for threads in (0, -3):
        with pytest.raises(InputError, match="threads must be >= 1"):
            simulate_null(g, ColorDistribution.uniform(2), 10, 0, threads=threads)


def test_martingale_variance_hook_matches_simulation_colorings():
    g = gen_regular(80, 4, 5)
    d = ColorDistribution.uniform(2)
    v2 = martingale_variance_samples(g, d, 8, 99)
    for r in range(8):
        colors = d.sample_coloring(g.n, stream_seed(99, r))
        assert martingale_variance(g, colors, d) == v2[r]
    big = martingale_variance_samples(g, d, 3000, 100)
    se = big.std(ddof=1) / math.sqrt(big.size)
    assert abs(big.mean() - 1.0) <= 4 * se


def one_group_budget(n):
    """The byte budget whose chunks are one lane group: see moments._chunking."""
    return 32 * (n + n // 127 + 1)


def state_blocks(n, lanes):
    """(replicates per chunk, vertices per block of stream states) of the sampler."""
    rows, words = _chunking(n, lanes)
    return rows, min(n, words // (2 * rows))


def test_martingale_variance_samples_independent_of_chunks_and_threads(monkeypatch):
    # The kernel splits a chunk into blocks of `step` rows.
    g = gen_regular(80, 4, 5)
    step = rng.budget_rows(64 * g.m)
    assert 0 < step < 1024
    d = ColorDistribution([0.25, 0.3, 0.45])
    v2 = martingale_variance_samples(g, d, 1100, 31)
    assert np.array_equal(v2, martingale_variance_samples(g, d, 1100, 31, threads=2))
    for r in (0, step - 1, step, 1023, 1024, 1099):
        colors = d.sample_coloring(g.n, stream_seed(31, r))
        assert martingale_variance(g, colors, d) == v2[r]
    # Budgets that leave blocks of 1, 2 and 3 rows, in chunks of 3, 7 and 11
    # lane groups, and one that leaves chunks of one lane group.
    for budget, rows, groups in ((64 * g.m, 1, 3), (128 * g.m, 2, 7), (192 * g.m, 3, 11),
                                 (one_group_budget(g.n), 1, 1)):
        monkeypatch.setattr(rng, "BUDGET", budget)
        assert (rng.budget_rows(64 * g.m), _chunking(g.n, 8)[0]) == (rows, 8 * groups)
        assert np.array_equal(martingale_variance_samples(g, d, 1100, 31, threads=2), v2)


@pytest.mark.parametrize("groups_per_chunk", [1, 7])
def test_samples_independent_of_chunk_budget_and_threads(monkeypatch, groups_per_chunk):
    # 103 replicates in 8-lane groups: chunks of one group, with a last
    # group of 7 lanes, or of 7 groups, with a last chunk of 47 replicates;
    # words come in blocks of 25 of the 190 vertices, whose states and
    # mixing scratch take 16 bytes each, half the budget.  The default
    # budget fits them all in one chunk, with words in blocks of 24.
    g = gen_regular(190, 4, 5)
    d = ColorDistribution([0.25, 0.3, 0.45])
    assert state_blocks(g.n, 8) == (2728, 24)
    want_q = null_q_samples(g, d, 103, 31)
    want_v2 = martingale_variance_samples(g, d, 103, 31)
    monkeypatch.setattr(rng, "BUDGET", 2 * 16 * 25 * 8 * groups_per_chunk)
    assert state_blocks(g.n, 8) == (8 * groups_per_chunk, 25)
    for threads in (1, 2, 3):
        assert np.array_equal(null_q_samples(g, d, 103, 31, threads=threads), want_q)
        assert np.array_equal(martingale_variance_samples(g, d, 103, 31, threads=threads), want_v2)


# A regular graph whose edges take two blocks at 2 MiB, an ER graph with
# isolated vertices (degree planes that miss vertices), a hub graph and a
# matching with one vertex of degree 2.
CHUNK_GRAPHS = {
    "reg": lambda: gen_regular(20_000, 3, 1),
    "er": lambda: gen_er(4000, 0.0005, 2),
    "hub": lambda: gen_hub(1500, 0.004, 3),
    "matching": lambda: LANE_GRAPHS["matching"],
}


@pytest.mark.parametrize("budget", [2 << 20, 4096])
@pytest.mark.parametrize("K", [2, 3, 300])
@pytest.mark.parametrize("graph_name", sorted(CHUNK_GRAPHS))
def test_a_narrower_last_chunk_matches_all_rows_at_once(monkeypatch, graph_name, K, budget):
    # Replicates in chunks with a narrower, ragged last chunk: every Q and
    # v2 equals the row-major oracles' on all rows at once.  The kernel gets
    # the scratch at exactly the rule's size, so a stage that needed more
    # would fail, also when called on each narrower chunk width.
    g = CHUNK_GRAPHS[graph_name]()
    d = ColorDistribution.uniform(2) if K == 2 else zipf(K)
    lanes = {1: 8, 2: 4, 4: 2}[lane_dtype(K).itemsize]
    monkeypatch.setattr(rng, "BUDGET", budget)
    rows, words = _chunking(g.n, lanes)
    reps = rows + rows // 2 + 3
    assert reps % rows
    colorings = np.array([d.sample_coloring(g.n, stream_seed(5, r)) for r in range(reps)])
    want = q_by_rows(colorings, g)
    tables = _q_tables(g, K)
    sizes = set()

    def kernel(colors, count, work):
        sizes.add(work.size)
        return _q_lanes(colors, count, tables, work)

    for threads in (1, 3):
        assert np.array_equal(_sample_rows(kernel, g, d, reps, 5, threads), want)
    assert sizes == {words}
    assert np.array_equal(martingale_variance_samples(g, d, reps, 5, threads=2),
                          v2_rows_by_int64_keys(colorings, g, d))
    assert np.array_equal(_q_of_rows(colorings, g, K), want)
    work = np.empty(words, np.uint64)
    for width in range(lanes, rows + 1, lanes):
        colors = np.ascontiguousarray(colorings[:width].T.astype(lane_dtype(K)))
        assert np.array_equal(_q_lanes(colors, width, tables, work), want[:width])


def test_workers_take_every_chunk_once(monkeypatch):
    # Eight workers on two cores, one lane group per chunk, and a thread
    # switch every microsecond: a chunk that two workers took, or none,
    # would leave its slice of the output stale.
    g = gen_regular(80, 4, 5)
    d = ColorDistribution([0.25, 0.3, 0.45])
    monkeypatch.setattr(rng, "BUDGET", one_group_budget(g.n))
    assert _chunking(g.n, 8)[0] == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            want = null_q_samples(g, d, 1003, seed)
            assert np.array_equal(null_q_samples(g, d, 1003, seed, threads=8), want)
            want = martingale_variance_samples(g, d, 1003, seed)
            assert np.array_equal(martingale_variance_samples(g, d, 1003, seed, threads=8), want)
    finally:
        sys.setswitchinterval(interval)


RING = np.arange(300)
# Edge counts on and off the byte-lane block of 255 edges, isolated
# vertices (40..99 of the "isolated" graph have no edges), a regular graph
# (degree planes that hold every vertex), and ER, hub and matching graphs
# (planes that miss vertices, many of them on the hub).
LANE_GRAPHS = {
    "m255": Graph(300, np.column_stack([RING[:255], RING[1:256]])),
    "m256": Graph(300, np.column_stack([RING[:256], RING[1:257]])),
    "m511": Graph(300, np.column_stack([np.r_[RING[:256], RING[:255]],
                                        np.r_[RING[1:257], (RING[:255] + 2) % 300]])),
    "isolated": Graph(100, [(i, j) for i in range(40) for j in range(i + 1, 40) if (i + j) % 3]),
    "reg": gen_regular(80, 4, 5),
    "er": gen_er(300, 0.05, 3),
    "hub": gen_hub(200, 0.05, 2),
    # One vertex of degree 2 and a matching: degree plane 0 misses one
    # vertex and holds 2m - 2, more than the edge ends' scratch with its sums.
    "matching": Graph(601, [(0, 1), (0, 2)] + [(v, v + 1) for v in range(3, 601, 2)]),
}


def zipf(K):
    """p_k proportional to 1/k: its thresholds fall inside guide buckets,
    which are then ambiguous."""
    raw = 1.0 / np.arange(1, K + 1)
    return ColorDistribution(raw / math.fsum(raw.tolist()))


def q_by_the_word_chain(g, d, reps, seed):
    """The sampler's Q of replicates 0..reps-1 by the library's earlier
    chain: whole words, the guide-table colors and the XOR/Warren/bincount
    kernel, on lanes padded by the next replicates' colors as the sampler
    pads them."""
    dtype = lane_dtype(d.K)
    lanes = 8 // dtype.itemsize
    r = -(-reps // lanes) * lanes
    seeds = stream_seed_array(seed, np.arange(r, dtype=np.uint64))
    states = stream_steps(g.n)[:, None] + seeds[None, :]
    colors = colors_by_guide_table(d, words_by_full_mix(states)).astype(dtype)
    return q_lanes_by_warren(colors, reps, g)


@pytest.mark.parametrize("K", [2, 3, 4, 8, 32, 255, 256, 257, 40000, 70000])
@pytest.mark.parametrize("graph_name", sorted(LANE_GRAPHS))
def test_lane_kernel_matches_the_row_major_oracle(monkeypatch, graph_name, K):
    # Every lane width (uint8 up to K=255, uint16 up to 65535, uint32 beyond),
    # the top-bits colors (K = 2, 4, 8, 256) and the guide table, replicate
    # counts around one 8-lane group, ragged last groups, the byte budget at
    # 2 MiB, 4 KiB and one lane group per chunk, and 1 to 3 threads: every
    # Q is bit-identical to the row-major oracle and to the earlier chain.
    g = LANE_GRAPHS[graph_name]
    lanes = {1: 8, 2: 4, 4: 2}[lane_dtype(K).itemsize]
    default = rng.BUDGET
    for d in (ColorDistribution.uniform(K), zipf(K)):
        monkeypatch.setattr(rng, "BUDGET", default)
        colorings = np.array([d.sample_coloring(g.n, stream_seed(17, r)) for r in range(103)])
        want = q_by_rows(colorings, g)
        assert np.array_equal(q_by_the_word_chain(g, d, 103, 17), want)
        for reps in (1, 7, 8, 9, 103):
            for threads in (1, 2, 3):
                assert np.array_equal(null_q_samples(g, d, reps, 17, threads=threads),
                                      want[:reps])
        # Zero padding lanes; constant colorings fill every lane sum to its
        # block length.
        rows = np.vstack([colorings, np.ones((1, g.n), np.int64), np.full((1, g.n), K)])
        for count in (1, 5, rows.shape[0]):
            padded = np.zeros((g.n, -(-count // lanes) * lanes), lane_dtype(K))
            padded[:, :count] = rows[:count].T
            assert np.array_equal(_q_of_rows(rows[:count], g, K), q_by_rows(rows[:count], g))
            assert np.array_equal(q_lanes_by_warren(padded, count, g), q_by_rows(rows[:count], g))
        # Words forced into every ambiguous guide bucket, from states whose
        # dropped bits are set.
        thresholds = d._guide[0].astype(np.int64)
        special = np.concatenate([thresholds - 1, thresholds, thresholds + 1])
        special = special[(special >= 0) & (special < 2 ** 53)].astype(np.uint64)
        assert np.array_equal(d._colors_of_states(states_of_words(special, 2 ** 11 - 1)),
                              colors_by_guide_table(d, special))
        monkeypatch.setattr(rng, "BUDGET", 4096)
        for threads in (1, 2):
            assert np.array_equal(null_q_samples(g, d, 103, 17, threads=threads), want)
        # 105 rows in chunks of one lane group, same-color edges in blocks of 85.
        assert _chunking(g.n, lanes)[0] == lanes and _edge_block(g.m, 1) == 85
        assert np.array_equal(_q_of_rows(rows, g, K), q_by_rows(rows, g))
        # One lane group per chunk.
        monkeypatch.setattr(rng, "BUDGET", one_group_budget(g.n))
        assert _chunking(g.n, lanes)[0] == lanes
        for threads in (1, 3):
            assert np.array_equal(null_q_samples(g, d, 103, 17, threads=threads), want)


def test_lane_kernel_block_sums_of_16_bit_lanes():
    # 65536 edges: one full block of 16-bit lane sums and one edge more.
    n = 32768
    i = np.arange(n)
    g = Graph(n, np.column_stack([np.r_[i, i], np.r_[(i + 1) % n, (i + 2) % n]]))
    assert g.m == 65536
    d = ColorDistribution.uniform(300)
    colorings = np.array([d.sample_coloring(n, stream_seed(3, r)) for r in range(9)])
    assert np.array_equal(null_q_samples(g, d, 9, 3, threads=2), q_by_rows(colorings, g))
    rows = np.vstack([np.ones((1, n), np.int64), np.full((1, n), 300)])
    assert np.array_equal(_q_of_rows(rows, g, 300), q_by_rows(rows, g))


@pytest.mark.parametrize("K", [40000, 70000])
def test_null_q_samples_beyond_int16_colors(K):
    g = gen_regular(60, 4, 6)
    d = ColorDistribution.uniform(K)
    q = null_q_samples(g, d, 4, 77)
    for r in range(4):
        assert q[r] == modularity(g, d.sample_coloring(g.n, stream_seed(77, r)))


def test_significance_pinned_triangle(triangle):
    rep = significance_test(triangle, [1, 2, 2])  # empirical p = (1/3, 2/3)
    assert rep.z_sigma == pytest.approx(-2 / math.sqrt(8), abs=1e-5)
    assert rep.p_value == pytest.approx(0.76025, abs=1e-5)
    assert rep.p_value == pytest.approx(1.0 - std_normal_cdf(rep.z_sigma), abs=1e-15)
    # delta standardization: (Q - mu)/delta
    expected_zd = (-2 / 9 + 4 / 27) / math.sqrt(16 / 243)
    assert rep.z_delta == pytest.approx(expected_zd, abs=1e-12)
    assert rep.sidedness == "upper"


def test_significance_sidedness_and_options(triangle):
    two = significance_test(triangle, [1, 2, 2], sided="two")
    assert two.sidedness == "two_sided"
    assert two.p_value == pytest.approx(2 * upper_p_value(abs(two.z_sigma)), abs=1e-15)
    by_delta = significance_test(triangle, [1, 2, 2], standardization="delta")
    assert by_delta.p_value == pytest.approx(upper_p_value(by_delta.z_delta), abs=1e-15)
    with pytest.raises(InputError):
        significance_test(triangle, [1, 2, 2], sided="lower")
    with pytest.raises(DomainError):
        significance_test(triangle, [1, 1, 1])
    with pytest.raises(InputError):
        significance_test(triangle, [1, 2])


def test_significance_refuses_colors_beyond_the_distribution(triangle):
    with pytest.raises(InputError, match="^color 5 exceeds K=3$"):
        significance_test(triangle, [1, 5, 2], ColorDistribution([0.2, 0.3, 0.5]))


@pytest.mark.parametrize("colors,K,error,message", [
    # A coloring of the wrong length that also holds a 0 is refused for the 0.
    ([1, 0], None, InputError, "colors must be integers >= 1"),
    ([1, 0], 2, InputError, "colors must be integers >= 1"),
    ([1, 5], 3, InputError, "color 5 exceeds K=3"),
    ([[1, 2, 2]], None, InputError, "coloring must be a nonempty vector"),
    # The distribution is judged before the length.
    ([1, 1], None, DomainError, "degenerate color distribution: z-score undefined"),
    ([1, 2], None, InputError, "coloring has length 2, expected 3"),
    ([1, 2, 2, 1], 2, InputError, "coloring has length 4, expected 3"),
])
def test_significance_checks_the_coloring_once_in_a_fixed_order(
        triangle, monkeypatch, colors, K, error, message):
    import modnull.colors
    import modnull.moments
    import modnull.simulation

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_coloring(*args, **kwargs)

    for module in (modnull.colors, modnull.moments, modnull.simulation):
        monkeypatch.setattr(module, "validate_coloring", counted)
    dist = None if K is None else ColorDistribution.uniform(K)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        significance_test(triangle, colors, dist)
    significance_test(triangle, [1, 2, 2], dist)
    assert len(calls) == 2


def test_null_p_values_roughly_uniform():
    g = gen_regular(300, 6, 8)
    s = simulate_null(g, ColorDistribution.uniform(2), 3000, 55)
    p = 0.5 * special.erfc(s.samples / math.sqrt(2.0))
    assert ks_distance_uniform(p) < 0.05
    # matches the scalar test path
    colors = ColorDistribution.uniform(2).sample_coloring(g.n, stream_seed(55, 0))
    rep = significance_test(g, colors, ColorDistribution.uniform(2))
    assert rep.p_value == pytest.approx(float(p[0]), abs=1e-15)


def test_be_rate_study_validation():
    with pytest.raises(InputError):
        be_rate_study("reg:d=6", (100, 200), 50, 0)
    with pytest.raises(InputError, match="^sizes must be strictly increasing$"):
        be_rate_study("reg:d=6", (200, 100), 200, 0)
    with pytest.raises(InputError, match="^sizes must all be >= 2$"):
        be_rate_study("reg:d=6", (1, 100), 200, 0)
    with pytest.raises(InputError):
        be_rate_study("reg:d=6", (), 200, 0)
    with pytest.raises(InputError):
        be_rate_study("reg:d=6", (100, 200), 200, 0, standardization="zeta")
    with pytest.raises(DomainError, match="^degenerate color distribution in study$"):
        be_rate_study("reg:d=6", (100, 200), 200, 0, distribution=ColorDistribution.uniform(1))


def test_be_rate_study_rows_and_determinism():
    rows1 = be_rate_study("reg:d=6", (50, 100), 150, 1234, standardization="delta")
    rows8 = be_rate_study("reg:d=6", (50, 100), 150, 1234, standardization="delta", threads=8)
    assert rows1 == rows8
    for row, n in zip(rows1, (50, 100)):
        assert row.n == n and row.m == 3 * n
        assert row.bound_shape == pytest.approx(n ** -0.25 * math.log(n), abs=1e-15)
        assert row.fitted_C == pytest.approx(row.ks / row.bound_shape, abs=1e-15)
        assert row.ks == row.ks_delta
        assert row.seed_used == stream_seed(1234, n)
        assert 0.0 <= row.ks <= 1.0
    sigma_rows = be_rate_study("reg:d=6", (50, 100), 150, 1234, standardization="sigma")
    assert sigma_rows[0].ks == sigma_rows[0].ks_sigma
    assert sigma_rows[0].ks_delta == rows1[0].ks_delta


def test_be_rate_study_generator_failure_names_size():
    with pytest.raises(DomainError, match="n=9"):
        be_rate_study("reg:d=3", (6, 9), 100, 0)


def test_slln_study_generator_failure_names_size():
    with pytest.raises(DomainError, match=r"^generator failed at size n=9: n\*d must be even"):
        slln_study("reg:d=3", (6, 9), 3, 0)


def test_slln_study_shape_and_determinism():
    sizes = (50, 100, 200, 400)
    res1 = slln_study("reg:d=6", sizes, 5, 31)
    res2 = slln_study("reg:d=6", sizes, 5, 31)
    assert np.array_equal(res1.values, res2.values)
    assert (res1.sizes, res1.path_summaries, res1.decayed_paths, res1.paths) == (
        res2.sizes, res2.path_summaries, res2.decayed_paths, res2.paths)
    assert res1.values.shape == (5, len(sizes)) and res1.sizes == sizes
    assert res1.paths == 5
    assert 0 <= res1.decayed_paths <= 5
    for s in res1.path_summaries:
        first = max(abs(v) for v in res1.values[s.path, :2].tolist())
        second = max(abs(v) for v in res1.values[s.path, 2:].tolist())
        assert s.first_half_max == first
        assert s.second_half_max == second
        assert s.decayed == (second <= first)


@pytest.mark.parametrize("probs", [(0.5, 0.5), (0.05, 0.15, 0.8)], ids=["uniform2", "skewed3"])
@pytest.mark.parametrize("paths", [2, 1100])
def test_slln_values_match_direct_recomputation(paths, probs):
    # 1100 paths span two 1024-row chunks of the batched kernel.
    sizes = (50, 100)
    d = ColorDistribution(probs)
    res = slln_study("reg:d=6", sizes, paths, 9, distribution=d)
    assert res.values.shape == (paths, len(sizes)) and res.sizes == sizes
    for j, n in enumerate(sizes):
        size_master, graph_seed, sim_master = _size_seeds(9, n)
        g = gen_regular(n, 6, graph_seed)
        b_n = math.sqrt(g.m) / math.log(n) ** 2
        mu = null_moments(g, d).mu
        for path, value in enumerate(res.values[:, j].tolist()):
            colors = d.sample_coloring(g.n, stream_seed(sim_master, path))
            assert value == b_n * (modularity(g, colors) - mu)


def test_slln_validation():
    with pytest.raises(InputError, match="^slln study needs at least two sizes$"):
        slln_study("reg:d=6", (100,), 5, 0)
    with pytest.raises(InputError, match="^sizes must be strictly increasing$"):
        slln_study("reg:d=6", (100, 50), 5, 0)
    with pytest.raises(InputError):
        slln_study("reg:d=6", (50, 100), 0, 0)
    with pytest.raises(InputError, match="^sizes must all be >= 2$"):
        slln_study("reg:d=6", (1, 100), 5, 0)
    with pytest.raises(DomainError, match="^degenerate color distribution in study$"):
        slln_study("reg:d=6", (50, 100), 5, 0, distribution=ColorDistribution.uniform(1))
