import numpy as np

from modnull.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    mix64,
    stream_seed,
    stream_seed_array,
    uniform_block,
    word_matrix,
)


def test_mix64_reference_values():
    # First splitmix64 outputs for seed 0 (state t*GOLDEN, t = 1, 2, 3).
    assert mix64(1 * GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(2 * GOLDEN & MASK64) == 0x6E789E6AA1B965F4
    assert mix64(3 * GOLDEN & MASK64) == 0x06C45D188009454F


def test_scalar_stream_matches_vector_block():
    rng = SplitMix64(987654321)
    scalar = [rng.uniform() for _ in range(64)]
    block = uniform_block(987654321, 64)
    assert scalar == block.tolist()


def test_uniforms_method_advances_like_scalar_draws():
    a = SplitMix64(5)
    b = SplitMix64(5)
    chunk = a.uniforms(10)
    singles = [b.uniform() for _ in range(10)]
    assert chunk.tolist() == singles
    assert a.uniform() == b.uniform()


def test_offset_blocks_tile_the_stream():
    whole = uniform_block(314, 100)
    parts = np.concatenate([uniform_block(314, 37), uniform_block(314, 63, offset=37)])
    assert np.array_equal(whole, parts)


def test_stream_seed_scalar_vs_array():
    idx = np.arange(50)
    vec = stream_seed_array(123456789, idx)
    assert vec.tolist() == [stream_seed(123456789, int(i)) for i in idx]


def test_word_matrix_rows_are_streams():
    seeds = stream_seed_array(77, np.arange(8))
    words = word_matrix(seeds, 33)
    assert words.dtype == np.uint64 and words.shape == (8, 33)
    for r in range(8):
        rng = SplitMix64(int(seeds[r]))
        assert words[r].tolist() == [rng.next_u64() >> 11 for _ in range(33)]
        assert np.array_equal(words[r] * 2.0 ** -53, uniform_block(int(seeds[r]), 33))
    tail = word_matrix(seeds, 20, offset=13)
    assert np.array_equal(tail, words[:, 13:])


def test_determinism_and_range():
    u1 = uniform_block(2024, 100000)
    u2 = uniform_block(2024, 100000)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    # mean of 1e5 uniforms, 6 sigma band around 1/2
    assert abs(u1.mean() - 0.5) < 6 * np.sqrt(1 / 12 / 100000)
    assert not np.array_equal(u1[:100], uniform_block(2025, 100)[:100])


def test_shuffle_and_sample_indices_deterministic():
    r1, r2 = SplitMix64(1), SplitMix64(1)
    x1, x2 = list(range(30)), list(range(30))
    r1.shuffle(x1)
    r2.shuffle(x2)
    assert x1 == x2
    assert sorted(x1) == list(range(30))
    picks = SplitMix64(9).sample_indices(5, 20)
    assert len(set(picks)) == 5
    assert all(0 <= v < 20 for v in picks)
    assert picks == SplitMix64(9).sample_indices(5, 20)
