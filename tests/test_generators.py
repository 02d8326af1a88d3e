import math
from array import array
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from modnull import (
    DomainError,
    Graph,
    InputError,
    SplitMix64,
    gen_er,
    gen_hub,
    gen_regular,
    parse_generator_spec,
    write_edge_list,
)
from modnull import generators, rng
from modnull.generators import GeneratorSpec, ceil_sqrt
from modnull.rng import stream_seed


def er_by_gap_rule(n, p, seed):
    """Seed-contract v2 one gap at a time: the edges ``_er_edge_array`` must return.

    Word x of the stream skips floor(ln((x + 1) * 2**-53) / ln(1 - p)) pairs,
    clamped at the pair count, before the next edge; pairs are listed
    lexicographically, so no index arithmetic is shared with the generator.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    stream = SplitMix64(seed)
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    edges, t = [], -1
    while True:
        x = stream.next_u64() >> 11
        t += math.floor(min(math.log((x + 1) * 2.0 ** -53) / log_q, len(pairs))) + 1
        if t >= len(pairs):
            return edges
        edges.append(pairs[t])


def er_by_pair_scan(n, p, seed):
    """The seed-contract v1 generator, kept as a distributional oracle.

    One Bernoulli(p) draw per unordered pair in lexicographic order: pair t
    is an edge when word x_{t+1} of stream ``seed`` is below ceil(p * 2**53).
    """
    lo, hi = np.triu_indices(n, 1)
    keep = SplitMix64(seed).words(len(lo)) < rng.word_threshold(p)
    return Graph(n, np.column_stack([lo[keep], hi[keep]]))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 30])
def test_er_follows_the_gap_rule(n):
    # At small n most steps cross a row boundary (pair (0, n-1) is followed
    # by (1, 2)), and n = 2 has a single pair.
    for p in (0.05, 0.3, 0.5, 0.9, 1.0):
        for seed in range(40):
            got = generators._er_edge_array(n, p, seed)
            assert got.dtype == np.int64 and got.shape[1] == 2
            assert list(map(tuple, got.tolist())) == er_by_gap_rule(n, p, seed), (p, seed)


def test_er_complete_graph_at_p_one():
    g = gen_er(3, 1.0, 123)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    for n in (2, 4, 30):
        assert gen_er(n, 1.0, n).edges() == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert gen_hub(30, 1.0, 1).m == 29 * 28 // 2 + ceil_sqrt(29)


def test_er_tiny_p_ends_in_the_retry_error():
    # Every gap exceeds the pair count, or the double range (5e-324): each
    # attempt draws one short block and finds no edge.
    for p in (1e-300, 5e-324):
        with pytest.raises(DomainError, match="no edges in 64 attempts"):
            gen_er(1000, p, 0)
        assert gen_hub(100, p, 1).m == ceil_sqrt(99)


@pytest.mark.parametrize("n, p", [(200, 0.05), (60, 0.3)])
def test_er_edge_count_and_degrees_match_the_pair_scan(n, p):
    # Over fixed seeds, the edge counts of both generators follow
    # Binomial(N, p), their pooled degrees follow Binomial(n - 1, p), and the
    # two samples agree with each other.  Every test is at level 1e-4.
    npairs = n * (n - 1) // 2
    seeds = range(300)
    skip = [Graph(n, generators._er_edge_array(n, p, s)) for s in seeds]
    scan = [er_by_pair_scan(n, p, s) for s in seeds]
    counts = {}
    histograms = {}
    lo, hi = int(stats.binom.ppf(0.005, n - 1, p)), int(stats.binom.isf(0.005, n - 1, p))
    expected = stats.binom.pmf(np.arange(lo, hi + 1), n - 1, p)
    expected[0] = stats.binom.cdf(lo, n - 1, p)
    expected[-1] = stats.binom.sf(hi - 1, n - 1, p)
    for name, graphs in (("skip", skip), ("scan", scan)):
        m = np.array([g.m for g in graphs], dtype=float)
        assert abs(m.mean() - npairs * p) < 4.0 * math.sqrt(npairs * p * (1 - p) / len(m)), name
        chi = (len(m) - 1) * m.var(ddof=1) / (npairs * p * (1 - p))
        assert stats.chi2.ppf(1e-4, len(m) - 1) < chi < stats.chi2.isf(1e-4, len(m) - 1), name
        degrees = np.clip(np.concatenate([g.degrees for g in graphs]), lo, hi)
        histograms[name] = np.bincount(degrees - lo, minlength=hi - lo + 1)
        fit = stats.chisquare(histograms[name], expected * len(degrees))
        assert fit.pvalue > 1e-4, name
        counts[name] = m
    assert stats.ks_2samp(counts["skip"], counts["scan"]).pvalue > 1e-4
    assert stats.chi2_contingency([histograms["skip"], histograms["scan"]]).pvalue > 1e-4


def test_er_determinism():
    a = write_edge_list(gen_er(50, 0.2, 99))
    b = write_edge_list(gen_er(50, 0.2, 99))
    assert a == b
    assert a != write_edge_list(gen_er(50, 0.2, 100))


def test_er_mean_degree_concentration():
    g = gen_er(2000, 0.005, 7)
    mean_deg = 2 * g.m / g.n
    expected = (g.n - 1) * 0.005
    assert abs(mean_deg - expected) / expected < 0.15


def test_er_validation_and_retries():
    with pytest.raises(InputError):
        gen_er(1, 0.5, 0)
    with pytest.raises(InputError):
        gen_er(10, 0.0, 0)
    with pytest.raises(InputError):
        gen_er(10, 1.5, 0)
    with pytest.raises(DomainError):
        gen_er(2, 1e-12, 0)


@pytest.mark.parametrize("block", [1, 7, None])
def test_er_scan_independent_of_block_size(monkeypatch, block):
    # Gaps are drawn in blocks of words within the byte budget; blocks of one
    # word, or of 7 with a ragged end, must give the gap rule's edges, also
    # when the last edge is the last pair (p = 1).
    cases = [(40, 0.1, 3), (12, 1.0, 3)]
    hub = write_edge_list(gen_hub(41, 0.1, 3))
    if block is not None:
        monkeypatch.setattr(rng, "BUDGET", block * generators._GAP_BYTES)
        assert rng.budget_rows(generators._GAP_BYTES) == block
    for n, p, seed in cases:
        assert gen_er(n, p, seed).edges() == er_by_gap_rule(n, p, seed)
    assert write_edge_list(gen_hub(41, 0.1, 3)) == hub


def two_ulp(x, direction):
    """``x`` moved by two units in the last place towards ``direction``."""
    return np.nextafter(np.nextafter(x, direction), direction)


def p_at_a_floor(seed, direction):
    """A p at which the first gap of stream ``seed``, ln(u) / ln(1 - p),
    lies so near an integer that a logarithm two ulp off towards
    ``direction`` moves its floor."""
    log_u = math.log(((SplitMix64(seed).next_u64() >> 11) + 1) * 2.0 ** -53)
    for k in range(2, 40):
        near_k = -math.expm1(log_u / k)
        for j in range(-8, 9):
            p = near_k + j * math.ulp(near_k)
            log_q = math.log1p(-p)
            if math.floor(two_ulp(log_u, direction) / log_q) != math.floor(log_u / log_q):
                return p
    raise AssertionError("no p moves the floor")


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_er_gaps_near_an_integer_take_libm_log(monkeypatch, direction):
    # numpy's log is replaced by one two ulp off.  At the chosen p the first
    # gap of the ER stream, and of the hub's base stream, lies so near an
    # integer that this log floors it differently from libm's, so only the
    # libm recheck of such gaps keeps both graphs on the gap rule.
    seed = 7
    p_er = p_at_a_floor(seed, direction)
    p_hub = p_at_a_floor(stream_seed(seed, 0), direction)
    spokes = SplitMix64(stream_seed(seed, 1)).sample_indices(ceil_sqrt(30), 30)
    hub = Graph(31, er_by_gap_rule(30, p_hub, stream_seed(seed, 0)) + [(v, 30) for v in spokes])
    real_log = np.log

    def off_log(x, out=None):
        y = two_ulp(real_log(x), direction)
        if out is None:
            return y
        out[...] = y
        return out

    monkeypatch.setattr(np, "log", off_log)
    assert gen_er(30, p_er, seed).edges() == er_by_gap_rule(30, p_er, seed)
    assert gen_hub(31, p_hub, seed).edges() == hub.edges()


def test_er_gaps_at_p_one_take_no_libm_log(monkeypatch):
    # ln(1 - p) is -inf, so every gap is 0: no gap lies near a positive
    # integer, and none crosses 0.
    def no_log(x):
        raise AssertionError("libm log called")

    monkeypatch.setattr(math, "log", no_log)
    assert gen_er(40, 1.0, 3).edges() == [(i, j) for i in range(40) for j in range(i + 1, 40)]


def test_regular_matching():
    g = gen_regular(4, 1, 7)
    assert g.m == 2
    assert g.degrees.tolist() == [1, 1, 1, 1]


def test_regular_degrees_exact():
    for n, d, seed in ((1000, 6, 42), (10, 3, 5), (500, 7, 8), (64, 2, 1)):
        g = gen_regular(n, d, seed)
        assert g.m == n * d // 2
        assert np.all(g.degrees == d)


def oracle_try_switch(u, v, k, edge_set, edge_list):
    """Replace edge_list[k] = (x, y) by (u, x), (v, y), else by (u, y), (v, x), if both are new."""
    x, y = edge_list[k]
    if x in (u, v) or y in (u, v):
        return False
    for a, b in (((u, x), (v, y)), ((u, y), (v, x))):
        ea = (min(a), max(a))
        eb = (min(b), max(b))
        if ea != eb and ea not in edge_set and eb not in edge_set:
            edge_set.remove((x, y))
            edge_list[k] = edge_list[-1]
            edge_list.pop()
            for e in (ea, eb):
                edge_set.add(e)
                edge_list.append(e)
            return True
    return False


def oracle_complete_stubs(stubs, edge_set, edge_list):
    """Join the smallest holder a to the next holder it is not adjacent to,
    else splice (a, b) into the first edge that takes it."""
    need = Counter(stubs)
    while need:
        held = sorted(need)
        a = held[0]
        b = next((w for w in held[1:] if (a, w) not in edge_set), None)
        if b is not None:
            edge_set.add((a, b))
            edge_list.append((a, b))
        else:
            b = held[1] if len(held) > 1 else a
            assert any(oracle_try_switch(a, b, k, edge_set, edge_list)
                       for k in range(len(edge_list)))
        need -= Counter((a, b))


def oracle_switch_repair(leftover, edge_set, edge_list, rng):
    """Splice each stub pair into random edges; hand the rest to the completion
    after _SWITCH_ATTEMPTS failures.  Returns the stage it ended in."""
    for idx in range(0, len(leftover), 2):
        u, v = leftover[idx], leftover[idx + 1]
        if not any(oracle_try_switch(u, v, rng.randbelow(len(edge_list)), edge_set, edge_list)
                   for _ in range(generators._SWITCH_ATTEMPTS)):
            oracle_complete_stubs(leftover[idx:], edge_set, edge_list)
            return "completed"
    return "switched"


def regular_by_pairing_loop(n, d, seed):
    """Reference for gen_regular: the same passes and repair, one pair at a time.

    Stubs are shuffled by the float images of the words, and each pair is
    placed unless it is a loop or an edge already placed, this pass included.
    The repair keeps every edge as a tuple in one list and one set.  Returns
    the graph and the last stage reached: "paired", "switched" or "completed".
    """
    rng = SplitMix64(seed)
    edge_set, edge_list = set(), []
    work = np.repeat(np.arange(n), d)
    stalls = 0
    for _ in range(generators._PAIRING_ROUNDS):
        if len(work) == 0:
            break
        work = work[np.argsort(rng.words(len(work)) * 2.0 ** -53, kind="stable")]
        leftover = []
        for u, v in zip(work[0::2].tolist(), work[1::2].tolist()):
            e = (min(u, v), max(u, v))
            if u == v or e in edge_set:
                leftover += [u, v]
            else:
                edge_set.add(e)
                edge_list.append(e)
        stalls = stalls + 1 if len(leftover) == len(work) else 0
        if stalls >= 3:
            break
        work = np.array(leftover, dtype=np.int64)
    stage = "paired"
    if len(work):
        stage = oracle_switch_repair(work.tolist(), edge_set, edge_list, rng)
    return Graph(n, edge_list), stage


# (n, d) -> how many of seeds 1-10 reach the random switches, and how many
# of those go on to the deterministic completion.
REPAIRS_REACHED = {
    (4, 1): (0, 0),
    (10, 3): (4, 0),
    (64, 2): (3, 0),
    (300, 6): (4, 0),
    (50, 47): (10, 3),
    (20, 17): (9, 0),
    (30, 26): (10, 0),
    (9, 8): (1, 1),
}


@pytest.mark.parametrize("n, d", list(REPAIRS_REACHED))
def test_regular_matches_the_pairing_loop(n, d):
    stages = Counter()
    for seed in range(1, 11):
        g, stage = regular_by_pairing_loop(n, d, seed)
        assert gen_regular(n, d, seed) == g, seed
        stages[stage] += 1
    # The comparison covers the repair, not just the pairing passes.
    repaired, completed = REPAIRS_REACHED[n, d]
    assert stages["switched"] + stages["completed"] >= repaired, stages
    assert stages["completed"] >= completed, stages


def test_dense_regular_graphs_complete_on_every_seed():
    # Random splicing alone gave up on (50, 47) for seeds 3, 5, 9 and 18, and
    # on 3 to 19 of seeds 1-20 for each K_n with 4 <= n <= 30; the
    # deterministic completion places every stub.
    cases = [(50, 47, s) for s in range(1, 21)]
    cases += [(n, d, s) for n in range(2, 13) for d in range(1, n) if n * d % 2 == 0
              for s in range(1, 4)]
    for n, d, seed in cases:
        g = gen_regular(n, d, seed)
        assert g.m == n * d // 2 and np.all(g.degrees == d), (n, d, seed)
    assert gen_regular(8, 7, 1).edges() == [(i, j) for i in range(8) for j in range(i + 1, 8)]


def test_stub_completion_adds_or_splices():
    # Path 0-1-2-3 with stubs 0, 3 (non-adjacent: added) and then 1, 1 on a
    # graph where 1's only non-neighbours 3 and 4 are joined: spliced.  Edges
    # are keys lo * n + hi, and the set needs only the edges at a holder.
    n = 5
    edge_list = array("q", [0 * n + 1, 1 * n + 2, 2 * n + 3])
    edge_set = {0 * n + 1, 2 * n + 3}
    generators._complete_stubs([3, 0], n, edge_set, edge_list)
    assert sorted(divmod(k, n) for k in edge_list) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert edge_set == {0 * n + 1, 0 * n + 3, 2 * n + 3}
    edge_list = array("q", [0 * n + 1, 1 * n + 2, 3 * n + 4, 0 * n + 2])
    edge_set = {0 * n + 1, 1 * n + 2}
    generators._complete_stubs([1, 1], n, edge_set, edge_list)
    assert sorted(divmod(k, n) for k in edge_list) == [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4)]
    # (3, 4) was swap-removed: the last edge (0, 2) took its place, and
    # (1, 3), (1, 4) were appended.
    assert edge_list.tolist() == [0 * n + 1, 1 * n + 2, 0 * n + 2, 1 * n + 3, 1 * n + 4]
    assert edge_set == {0 * n + 1, 1 * n + 2, 1 * n + 3, 1 * n + 4}


def test_stub_order_is_the_stable_argsort():
    words = SplitMix64(4).words(5000)
    planted = words.copy()
    planted[::7] = planted[3]  # one word shared by 715 stubs
    planted[[10, 4000]] = planted[[2500, 11]]  # two tied pairs
    cases = [words, planted, words[:1], words[:0], np.zeros(9, dtype=np.uint64)]
    for w in cases:
        assert np.array_equal(generators._stable_order(w), np.argsort(w, kind="stable"))


def test_regular_parity_and_validation():
    with pytest.raises(DomainError):
        gen_regular(5, 1, 0)
    with pytest.raises(InputError):
        gen_regular(4, 4, 0)
    with pytest.raises(InputError):
        gen_regular(4, 0, 0)


def test_regular_determinism():
    assert write_edge_list(gen_regular(200, 6, 11)) == write_edge_list(gen_regular(200, 6, 11))


def test_hub_star_when_base_is_empty():
    g = gen_hub(5, 0.0, 9)
    assert g.m == 2
    assert int(g.degrees[4]) == 2  # ceil(sqrt(4)) spokes on the added vertex


def test_hub_guaranteed_heavy_vertex():
    for seed in range(5):
        for n in (10, 50, 200):
            g = gen_hub(n, 2.0 / n, seed)
            assert int(g.degrees.max()) >= ceil_sqrt(n - 1)


def test_hub_validation():
    with pytest.raises(InputError):
        gen_hub(3, 0.1, 0)
    with pytest.raises(InputError):
        gen_hub(10, -0.1, 0)


def test_generated_graphs_satisfy_invariants():
    for g in (gen_er(30, 0.3, 1), gen_regular(30, 4, 2), gen_hub(30, 0.1, 3)):
        assert int(g.degrees.sum()) == 2 * g.m
        assert np.all(g.edge_lo < g.edge_hi)


def test_ceil_sqrt():
    for x in range(1, 200):
        assert ceil_sqrt(x) == math.ceil(math.sqrt(x))


def test_parse_generator_spec():
    assert parse_generator_spec("er:p=0.25") == GeneratorSpec(model="er", p=0.25)
    assert parse_generator_spec("reg:d=6") == GeneratorSpec(model="reg", d=6)
    assert parse_generator_spec("hub:p=0.0") == GeneratorSpec(model="hub", p=0.0)
    for bad in ("er", "er:q=1", "reg:d=zero", "reg:d=0", "er:p=0", "er:p=2", "ring:p=1"):
        with pytest.raises(InputError):
            parse_generator_spec(bad)


def test_spec_build_dispatch():
    assert parse_generator_spec("reg:d=2").build(10, 4).m == 10
    assert str(parse_generator_spec("reg:d=6")) == "reg:d=6"
    g = parse_generator_spec("er:p=1.0").build(3, 0)
    assert g.m == 3
