import math

import numpy as np
import pytest

from conftest import colors_by_float_lookup
from modnull import (
    ColorDistribution,
    DomainError,
    condition_statistics,
    gen_hub,
    gen_regular,
    tail_bound,
)
from modnull.rng import SplitMix64, stream_seed


def test_regular_graphs_have_constant_stat31():
    # kmax / sqrt(m) = sqrt(2d/n) exactly cancels the sqrt(n) factor
    for d in (2, 4, 6):
        for n in (100, 500):
            rep = condition_statistics(gen_regular(n, d, 3))
            assert rep.stat_31 == pytest.approx(math.sqrt(2 * d), abs=1e-12)
            assert rep.kmax == d and rep.m == n * d // 2


def test_triangle_report_pinned(triangle):
    rep = condition_statistics(triangle)
    assert rep.stat_31 == pytest.approx(2.0, abs=1e-15)
    # frobenius sum is 18, m^2 = 9
    assert rep.stat_311 == pytest.approx(2.0 * 3 ** 1.25 / math.log(3) ** 5, abs=1e-13)
    expected_c1 = (2 / math.sqrt(3)) * 3 ** 0.625 / math.log(3) ** 2.5
    assert rep.stat_c1 == pytest.approx(expected_c1, abs=1e-13)
    assert rep.holds_c1 is False
    assert (rep.n, rep.m, rep.kmax) == (3, 3, 2)


def test_holds_c1_on_moderate_regular_graph():
    rep = condition_statistics(gen_regular(1024, 6, 5))
    assert rep.holds_c1 is True
    assert rep.stat_c1 <= 1.0


def test_hub_family_violates_max_degree_condition():
    for n in (100, 1000):
        rep = condition_statistics(gen_hub(n, 3 / n, 17))
        assert rep.stat_31 >= 0.5


def test_report_dict_field_names(triangle):
    d = condition_statistics(triangle)._asdict()
    assert list(d) == ["stat_31", "stat_311", "stat_c1", "holds_c1", "n", "m", "kmax"]


def test_tail_bound_values(triangle):
    d_n = 2.0 * math.sqrt(3)
    assert tail_bound(triangle, 200.0) == pytest.approx(
        math.exp(-200.0 / (4 * math.e * d_n)), abs=1e-15
    )
    # just above the domain threshold the bound approaches e^{-2}
    x = 8 * math.e * d_n * (1 + 1e-12)
    assert tail_bound(triangle, x) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_tail_bound_domain(triangle):
    with pytest.raises(DomainError):
        tail_bound(triangle, 10.0)
    with pytest.raises(DomainError):
        tail_bound(triangle, 8 * math.e * 2 * math.sqrt(3))


def test_empirical_tail_never_exceeds_bound():
    # Monte Carlo frequency of |sum over edges of kernel| > x against the bound
    g = gen_regular(60, 4, 21)
    dist = ColorDistribution.uniform(2)
    reps = 4000
    words = np.stack([SplitMix64(stream_seed(777, r)).words(g.n) for r in range(reps)])
    colors = colors_by_float_lookup(dist, words * 2.0 ** -53)
    c_lo = colors[:, g.edge_lo]
    c_hi = colors[:, g.edge_hi]
    kern = (
        (c_lo == c_hi).astype(float)
        - dist.p[c_lo - 1]
        - dist.p[c_hi - 1]
        + dist.p2
    ).sum(axis=1)
    d_n = 2.0 * math.sqrt(g.m)
    for x in np.linspace(8 * math.e * d_n * 1.01, 8 * math.e * d_n * 1.5, 5):
        freq = float(np.mean(np.abs(kern) > x))
        assert freq <= tail_bound(g, float(x))
