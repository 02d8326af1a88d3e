import math

import numpy as np
import pytest

from modnull import ColorDistribution, Graph, gen_er


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
    import math

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


def martingale_variance_by_wedges(g, colors, dist):
    """Reference for the martingale variance, one term per edge and per wedge.

    Revealing vertices in id order, vertex j with lower neighbours L_j adds
    sum_{i in L_j} E[h(c_i, c)^2] + 2 sum_{i < l in L_j} E[h(c_i, c) h(c_l, c)],
    one cross moment per wedge i-j-l, built from the edge arrays and the
    conditional moments of the distribution, then summed exactly.
    """
    colors_range = range(1, dist.K + 1)
    second = np.array([dist.cond_second_moment(a) for a in colors_range])
    cross = np.array([[dist.cond_cross_moment(a, b) for b in colors_range] for a in colors_range])
    c = np.asarray(colors) - 1
    terms = [second[c[g.edge_lo]]]
    for j in range(g.n):
        lower = c[g.edge_lo[g.edge_hi == j]]
        i, l = np.triu_indices(lower.size, 1)
        terms.append(2.0 * cross[lower[i], lower[l]])
    return math.fsum(np.concatenate(terms).tolist()) / (g.m * dist.r1)
