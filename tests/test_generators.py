import math

import numpy as np
import pytest

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


def test_er_complete_graph_at_p_one():
    g = gen_er(3, 1.0, 123)
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


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
    # The scan tiles the pair stream in blocks within the byte budget; blocks
    # of one pair, or of 7 with a ragged last block, must find the same edges.
    want = [write_edge_list(gen_er(40, 0.1, 3)), write_edge_list(gen_hub(41, 0.1, 3))]
    assert rng.budget_rows(generators._PAIR_BYTES) > 40 * 39 // 2
    if block is not None:
        monkeypatch.setattr(rng, "BUDGET", block * generators._PAIR_BYTES)
        assert rng.budget_rows(generators._PAIR_BYTES) == block
    assert [write_edge_list(gen_er(40, 0.1, 3)), write_edge_list(gen_hub(41, 0.1, 3))] == want


def test_regular_matching():
    g = gen_regular(4, 1, 7)
    assert g.m == 2
    assert g.degrees.tolist() == [1, 1, 1, 1]


def test_regular_degrees_exact():
    for n, d, seed in ((1000, 6, 42), (10, 3, 5), (500, 7, 8), (64, 2, 1)):
        g = gen_regular(n, d, seed)
        assert g.m == n * d // 2
        assert np.all(g.degrees == d)


def regular_by_pairing_loop(n, d, seed):
    """Reference for gen_regular: the same passes, one pair at a time.

    Stubs are shuffled by the float images of the words, and each pair is
    placed unless it is a loop or an edge already placed, this pass included.
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
    if len(work):
        generators._switch_repair(work.tolist(), edge_set, edge_list, rng)
    return Graph(n, edge_list)


@pytest.mark.parametrize("n, d", [(4, 1), (10, 3), (64, 2), (300, 6), (50, 47), (20, 17), (30, 26)])
def test_regular_matches_the_pairing_loop(n, d):
    def outcome(generate, seed):
        try:
            return generate(n, d, seed)
        except DomainError as exc:  # a dense repair can give up, then both must
            return str(exc)

    for seed in range(1, 6):
        assert outcome(gen_regular, seed) == outcome(regular_by_pairing_loop, seed), seed


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
