import numpy as np
import pytest

from conftest import words_by_full_mix

from modnull.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    finish_words,
    half_mix,
    mix64,
    stream_seed,
    stream_seed_array,
    stream_steps,
    word_threshold,
)


def test_mix64_reference_values():
    # First splitmix64 outputs for seed 0 (state t*GOLDEN, t = 1, 2, 3).
    assert mix64(1 * GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(2 * GOLDEN & MASK64) == 0x6E789E6AA1B965F4
    assert mix64(3 * GOLDEN & MASK64) == 0x06C45D188009454F


def test_scalar_stream_matches_vector_block():
    rng = SplitMix64(987654321)
    scalar = [rng.next_u64() >> 11 for _ in range(64)]
    block = SplitMix64(987654321).words(64)
    assert block.dtype == np.uint64
    assert scalar == block.tolist()


def test_words_method_advances_like_scalar_draws():
    a = SplitMix64(5)
    b = SplitMix64(5)
    chunk = a.words(10)
    singles = [b.next_u64() >> 11 for _ in range(10)]
    assert chunk.tolist() == singles
    assert a.next_u64() == b.next_u64()


def test_offset_blocks_tile_the_stream():
    whole = SplitMix64(314).words(100)
    stream = SplitMix64(314)
    parts = np.concatenate([stream.words(37), stream.words(63)])
    assert np.array_equal(whole, parts)


def test_stream_seed_scalar_vs_array():
    idx = np.arange(50)
    vec = stream_seed_array(123456789, idx)
    assert vec.tolist() == [stream_seed(123456789, int(i)) for i in idx]


def test_stream_states_give_the_words_of_every_stream():
    # Seeds plus stream_steps, half-mixed in place and finished, are the
    # words of each stream: the vector form the sampling kernel draws.
    seeds = stream_seed_array(77, np.arange(8))
    states = seeds[:, None] + stream_steps(33)[None, :]
    want = words_by_full_mix(states)
    z2 = half_mix(states)
    assert z2 is states and z2.dtype == np.uint64 and z2.shape == (8, 33)
    # The last xor-shift keeps the top 31 bits: a word's top bits are z2's.
    for b in (1, 16, 31):
        assert np.array_equal(z2 >> np.uint64(64 - b), want >> np.uint64(53 - b))
    words = finish_words(z2.copy())
    assert np.array_equal(words, want)
    for r in range(8):
        rng = SplitMix64(int(seeds[r]))
        assert words[r].tolist() == [rng.next_u64() >> 11 for _ in range(33)]
        assert np.array_equal(words[r], SplitMix64(int(seeds[r])).words(33))
        stream = SplitMix64(int(seeds[r]))
        assert np.array_equal(stream.half_mixed(33), z2[r])
        # half_mixed advances the stream past its words, as words does.
        assert stream.next_u64() >> 11 == SplitMix64(int(seeds[r])).words(34)[-1]


def test_determinism_and_range():
    x1 = SplitMix64(2024).words(100000)
    x2 = SplitMix64(2024).words(100000)
    assert np.array_equal(x1, x2)
    assert int(x1.max()) < 2 ** 53
    u1 = x1 * 2.0 ** -53
    # mean of 1e5 uniforms, 6 sigma band around 1/2
    assert abs(u1.mean() - 0.5) < 6 * np.sqrt(1 / 12 / 100000)
    assert not np.array_equal(x1[:100], SplitMix64(2025).words(100))


_K = 123456789
THRESHOLD_EDGES = [
    5e-324,
    2.0 ** -53,
    _K * 2.0 ** -53,
    np.nextafter(_K * 2.0 ** -53, 0.0),
    np.nextafter(_K * 2.0 ** -53, 1.0),
    0.5,
    np.nextafter(1.0, 0.0),
    1.0,
]


@pytest.mark.parametrize("q", THRESHOLD_EDGES)
def test_word_threshold_decides_the_float_comparison_exactly(q):
    t = int(word_threshold(q))
    for x in {0, max(t - 1, 0), t, 2 ** 53 - 1}:
        assert (np.uint64(x) < word_threshold(q)) == (x * 2.0 ** -53 < q), (q, x)


def test_sample_indices_deterministic():
    picks = SplitMix64(9).sample_indices(5, 20)
    assert len(set(picks)) == 5
    assert all(0 <= v < 20 for v in picks)
    assert picks == SplitMix64(9).sample_indices(5, 20)


def test_sample_indices_matches_a_dense_fisher_yates():
    # The sparse pool must make the same swaps as a full list of the population.
    for seed in range(20):
        for count, population in ((5, 20), (20, 20), (30, 31), (1, 1)):
            rng = SplitMix64(seed)
            pool = list(range(population))
            for i in range(count):
                j = i + rng.randbelow(population - i)
                pool[i], pool[j] = pool[j], pool[i]
            assert SplitMix64(seed).sample_indices(count, population) == pool[:count]
