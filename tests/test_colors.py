import math

import numpy as np
import pytest

from conftest import colors_by_float_lookup, random_distribution
from modnull import (ColorDistribution, DomainError, InputError, modularity,
                     parse_probability_text, validate_coloring)
from modnull.colors import ColoringError
from modnull.rng import SplitMix64, stream_seed


def kernel_oracle(dist, a, b):
    return (1.0 if a == b else 0.0) - dist.p[a - 1] - dist.p[b - 1] + dist.p2


def csm_oracle(dist, a):
    """Brute-force E[kernel(a, c)^2] by summing over the color c."""
    return math.fsum(
        dist.p[c - 1] * kernel_oracle(dist, a, c) ** 2 for c in range(1, dist.K + 1)
    )


def ccm_oracle(dist, a, b):
    return math.fsum(
        dist.p[c - 1] * kernel_oracle(dist, a, c) * kernel_oracle(dist, b, c)
        for c in range(1, dist.K + 1)
    )


def test_from_coloring_example():
    d = ColorDistribution.from_coloring([1, 2, 2], K=2)
    assert d.p.tolist() == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    assert d.p2 == pytest.approx(5 / 9, abs=1e-15)
    assert d.p3 == pytest.approx(1 / 3, abs=1e-15)


def test_from_coloring_degenerate_and_uniform():
    d = ColorDistribution.from_coloring([1, 1, 1])
    assert d.K == 1 and d.p2 == 1.0 and d.p3 == 1.0 and d.is_degenerate
    d = ColorDistribution.from_coloring([1, 2, 3, 4])
    assert d.p2 == pytest.approx(0.25, abs=1e-15)


def test_from_coloring_validation():
    with pytest.raises(InputError, match="^coloring must be a nonempty vector$"):
        ColorDistribution.from_coloring([])
    with pytest.raises(InputError, match="^colors must be integers >= 1$"):
        ColorDistribution.from_coloring([0, 1])
    with pytest.raises(InputError, match="^color 3 exceeds K=2$"):
        ColorDistribution.from_coloring([1, 3], K=2)


@pytest.mark.parametrize("colors,index", [
    ([1.7, 2, 1], 0), ([1, math.nan, 2], 1), ([1, math.inf, 2], 1), ([2.0 ** 63, 1, 2], 0),
    ([1, None, 2], 1), ([1, 2, 2 ** 64], 2), (["1", "x", "2"], 1),
])
def test_non_integer_colors_are_refused_at_their_index(colors, index):
    # int64 conversion used to truncate 1.7 to 1, and failed with a bare
    # numpy error on nan, inf and 2.0**63.
    for check in (validate_coloring, ColorDistribution.from_coloring):
        with pytest.raises(ColoringError, match="^colors must be integers$") as exc:
            check(colors)
        assert exc.value.index == index and isinstance(exc.value, InputError)


@pytest.mark.parametrize("colors,K,index,message", [
    ([1, 0, 5], 3, 1, "colors must be integers >= 1"),
    ([1, 5, 0], 3, 1, "color 5 exceeds K=3"),
    ([1, 4, 5], 3, 1, "color 4 exceeds K=3"),
    ([-3, 1.5], None, 0, "colors must be integers >= 1"),
])
def test_coloring_faults_name_the_first_entry(colors, K, index, message):
    with pytest.raises(ColoringError, match=f"^{message}$") as exc:
        validate_coloring(colors, n=1, K=K)
    assert exc.value.index == index


def test_integral_float_colors_are_integers(triangle):
    colors = validate_coloring([1.0, 2.0, 1.0], n=3, K=2)
    assert colors.dtype == np.int64 and colors.tolist() == [1, 2, 1]
    assert modularity(triangle, [1.0, 2.0, 1.0]) == modularity(triangle, [1, 2, 1])


def test_scalar_colors_go_through_the_coloring_check():
    u2 = ColorDistribution.uniform(2)
    with pytest.raises(InputError, match="^colors must be integers$"):
        u2.centered_kernel(1.5, 1)
    with pytest.raises(InputError, match="^color 3 exceeds K=2$"):
        u2.cond_cross_moment(1, 3)
    assert u2.cond_second_moment(2.0) == u2.cond_second_moment(2)


def test_constructor_validation():
    with pytest.raises(InputError):
        ColorDistribution([0.5, 0.6])
    with pytest.raises(InputError):
        ColorDistribution([-0.1, 1.1])
    with pytest.raises(InputError):
        ColorDistribution([])


@pytest.mark.parametrize("p", [[1e308, 1e308], [np.inf, -np.inf], [np.nan, 1.0], [1.5, -0.5]],
                         ids=["1e308", "inf", "nan", "above-1"])
def test_constructor_refuses_entries_outside_the_unit_interval(p):
    # Checked before the sum: two entries of 1e308 would overflow fsum.
    with pytest.raises(InputError, match=r"^probabilities must lie in \[0, 1\]$"):
        ColorDistribution(p)


@pytest.mark.parametrize("text,line", [("0.5\ninf\n", 2), ("-inf\n1\n", 1), ("nan\n", 1),
                                       ("1e308\n1e308\n", 1), ("-0.5\n1.5\n", 1),
                                       ("0.5\n1.000001\n", 2)],
                         ids=["inf", "-inf", "nan", "1e308", "negative", "above-1"])
def test_probability_file_refuses_values_outside_the_unit_interval(text, line):
    raw = text.splitlines()[line - 1]
    with pytest.raises(InputError, match=f"^line {line}: not a probability: {raw!r}$"):
        parse_probability_text(text)


def test_probability_file_accepts_a_value_within_the_sum_tolerance_of_1():
    assert parse_probability_text("1.0000000005\n").p.tolist() == [1.0]


def test_power_sums():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = random_distribution(rng)
        assert d.p2 == pytest.approx(math.fsum(x * x for x in d.p.tolist()), abs=1e-15)
        assert d.p3 == pytest.approx(math.fsum(x ** 3 for x in d.p.tolist()), abs=1e-15)
    assert ColorDistribution.uniform(2).p3 == pytest.approx(1 / 4, abs=1e-15)
    assert ColorDistribution([1 / 3, 2 / 3]).p2 == pytest.approx(5 / 9, abs=1e-15)


def test_kernel_examples():
    assert ColorDistribution.uniform(1).centered_kernel(1, 1) == 0.0
    u2 = ColorDistribution.uniform(2)
    assert u2.centered_kernel(1, 1) == pytest.approx(0.5, abs=1e-15)
    assert u2.centered_kernel(1, 2) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(InputError):
        u2.centered_kernel(0, 1)
    with pytest.raises(InputError):
        u2.centered_kernel(1, 3)


def test_kernel_bounded_by_two():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = random_distribution(rng)
        for a in range(1, d.K + 1):
            for b in range(1, d.K + 1):
                assert abs(d.centered_kernel(a, b)) <= 2.0


def test_kernel_has_zero_mean_by_enumeration():
    # sum_a p_a sum_c p_c kernel(a, c) == 0 for every K <= 6
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = random_distribution(rng)
        total = math.fsum(
            d.p[a - 1] * d.p[c - 1] * d.centered_kernel(a, c)
            for a in range(1, d.K + 1)
            for c in range(1, d.K + 1)
        )
        assert abs(total) <= 1e-12


def test_cond_second_moment_against_bruteforce():
    u2 = ColorDistribution.uniform(2)
    assert csm_oracle(u2, 1) == pytest.approx(0.25, abs=1e-15)
    assert u2.cond_second_moment(1) == pytest.approx(0.25, abs=1e-15)
    assert ColorDistribution.uniform(1).cond_second_moment(1) == pytest.approx(0.0, abs=1e-15)
    # skewed case where hand arithmetic goes wrong; trust only the oracle
    skew = ColorDistribution([1 / 3, 2 / 3])
    assert skew.cond_second_moment(1) == pytest.approx(csm_oracle(skew, 1), abs=1e-15)
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = random_distribution(rng)
        for a in range(1, d.K + 1):
            val = d.cond_second_moment(a)
            assert val >= -1e-15
            assert val == pytest.approx(csm_oracle(d, a), abs=1e-14)


def test_cond_cross_moment_against_bruteforce():
    u2 = ColorDistribution.uniform(2)
    assert ccm_oracle(u2, 1, 2) == pytest.approx(-0.25, abs=1e-15)
    assert u2.cond_cross_moment(1, 2) == pytest.approx(-0.25, abs=1e-15)
    assert ColorDistribution.uniform(1).cond_cross_moment(1, 1) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(29)
    for _ in range(200):
        d = random_distribution(rng)
        for a in range(1, d.K + 1):
            assert d.cond_cross_moment(a, a) == pytest.approx(
                d.cond_second_moment(a), abs=1e-15
            )
            for b in range(1, d.K + 1):
                assert d.cond_cross_moment(a, b) == pytest.approx(
                    ccm_oracle(d, a, b), abs=1e-14
                )


def test_moment_expectation_identities():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = random_distribution(rng)
        mean_csm = math.fsum(
            d.p[a - 1] * d.cond_second_moment(a) for a in range(1, d.K + 1)
        )
        assert mean_csm == pytest.approx(d.r1, abs=1e-12)
        mean_ccm = math.fsum(
            d.p[a - 1] * d.p[b - 1] * d.cond_cross_moment(a, b)
            for a in range(1, d.K + 1)
            for b in range(1, d.K + 1)
        )
        assert abs(mean_ccm) <= 1e-12


def test_moment_constants():
    u2 = ColorDistribution.uniform(2)
    assert (u2.r1, u2.r2) == pytest.approx((0.25, 0.0), abs=1e-15)
    d = ColorDistribution([1 / 3, 2 / 3])
    assert d.r1 == pytest.approx(16 / 81, abs=1e-15)
    assert d.r2 == pytest.approx(2 / 81, abs=1e-15)
    k1 = ColorDistribution.uniform(1)
    assert (k1.r1, k1.r2) == (0.0, 0.0)


def test_sampling_determinism_and_degeneracy():
    d = ColorDistribution([0.2, 0.3, 0.5])
    c1 = d.sample_coloring(1000, 99)
    c2 = d.sample_coloring(1000, 99)
    assert np.array_equal(c1, c2)
    assert c1.min() >= 1 and c1.max() <= 3
    assert not np.array_equal(c1, d.sample_coloring(1000, 100))
    k1 = ColorDistribution.uniform(1)
    with pytest.raises(DomainError):
        k1.sample_coloring(5, 0)
    with pytest.raises(InputError):
        d.sample_coloring(0, 1)


def test_sampling_frequency_concentration():
    d = ColorDistribution.uniform(2)
    n = 100000
    for seed in (stream_seed(7, 0), stream_seed(7, 1), stream_seed(7, 2)):
        colors = d.sample_coloring(n, seed)
        freq = np.mean(colors == 1)
        assert abs(freq - 0.5) <= 6 * math.sqrt(0.25 / n)


LOOKUP_CASES = {
    # thresholds 2**52 and 3 * 2**51 sit exactly on guide-bucket edges
    "bucket_edges": [0.5, 0.25, 0.25],
    # threshold 2**37 - 1 is the last word of the first bucket
    "bucket_last_word": [2.0 ** -16 - 2.0 ** -53, 1.0 - 2.0 ** -16 + 2.0 ** -53],
    # 199 thresholds inside the first bucket, then the same ones inside the last
    "crowded_low": [1e-9] * 199 + [1.0 - 199e-9],
    "crowded_high": [1.0 - 199e-9] + [1e-9] * 199,
    "zero_mass": [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
    # the cumulative sum reaches 1 (and exceeds it) before the last slot
    "sum_hits_one": [0.5, 0.5, 1e-13],
    "sum_above_one": [0.6, 0.4 + 4e-13, 0.0, 1e-13],
    # more colors than the 65536 buckets, so no bucket is unambiguous
    "more_colors_than_buckets": [1.0 / 70000] * 70000,
}


@pytest.mark.parametrize("case", sorted(LOOKUP_CASES))
def test_word_lookup_matches_float_inverse_cdf(case):
    d = ColorDistribution(LOOKUP_CASES[case])
    top = 2 ** 53 - 1
    thresholds = np.ceil(np.cumsum(d.p)[:-1] * 2.0 ** 53)
    thresholds = thresholds[thresholds <= top].astype(np.int64)
    edges = np.arange(0, 2 ** 53 + 1, 2 ** 37, dtype=np.int64)
    special = np.concatenate([thresholds, edges, [0, 1, top]])
    special = np.concatenate([special - 1, special, special + 1])
    special = special[(special >= 0) & (special <= top)].astype(np.uint64)
    words = np.concatenate([special, SplitMix64(stream_seed(5, len(d.p))).words(50_000)])
    got = d._colors_of_words(words)
    assert got.dtype == (np.uint8 if d.K < 2 ** 8 else np.uint16 if d.K < 2 ** 16 else np.uint32)
    assert np.array_equal(got, colors_by_float_lookup(d, words * 2.0 ** -53))
    block = d._colors_of_words(words[:60].reshape(3, 20))
    assert np.array_equal(block.ravel(), got[:60])
    seed = stream_seed(9, 1)
    coloring = d.sample_coloring(1000, seed)
    assert coloring.dtype == np.int64
    assert np.array_equal(coloring, colors_by_float_lookup(d, SplitMix64(seed).words(1000) * 2.0 ** -53))


def test_probability_file_parsing():
    d = parse_probability_text("# colors\n0.25\n0.25\n\n0.5\n")
    assert d.p.tolist() == [0.25, 0.25, 0.5]
    assert math.fsum(d.p.tolist()) == 1.0
    with pytest.raises(InputError):
        parse_probability_text("0.5\n0.5002\n")
    with pytest.raises(InputError):
        parse_probability_text("")
    with pytest.raises(InputError):
        parse_probability_text("0.5\nhalf\n")
    # sums inside 1e-9 are accepted and renormalized to an exact unit sum
    d = parse_probability_text("0.3000000002\n0.7\n")
    assert math.fsum(d.p.tolist()) == pytest.approx(1.0, abs=1e-15)
