"""Modularity under a random-labeling null model.

Given a simple undirected graph and a partition of its vertices into
color classes, this package computes Newman's modularity Q, the exact
mean and variance of Q when colors are reassigned independently at
random, and the resulting z-test for whether an observed partition beats
chance.  Around that core it provides degree-sequence diagnostics for
when the normal approximation is trustworthy, deterministic seeded graph
generators, and Monte Carlo studies of how fast the null distribution of
Q approaches the normal (Kolmogorov distance against the n^{-1/4} log n
shape) and how fast b_n (Q - mu) dies out path by path.

Everything is reproducible: all randomness derives from 64-bit master
seeds through a fixed splitmix64 scheme, and parallel execution is
guaranteed to produce results identical to sequential runs.
"""

from .colors import ColorDistribution, parse_probability_text, validate_coloring
from .conditions import ConditionReport, condition_statistics, tail_bound
from .errors import DomainError, InputError, ModnullError
from .generators import (
    GeneratorSpec,
    gen_er,
    gen_hub,
    gen_regular,
    parse_generator_spec,
)
from .graph import (
    DegreeSummary,
    Graph,
    common_neighbor_frobenius,
    parse_edge_list,
    write_edge_list,
)
from .moments import (
    Decomposition,
    NullMoments,
    center_decompose,
    exact_moments_by_enumeration,
    martingale_variance,
    modularity,
    null_moments,
)
from .rng import SplitMix64, mix64, stream_seed
from .simulation import (
    NullSample,
    RateRow,
    SllnResult,
    TestReport,
    be_rate_study,
    ks_distance,
    ks_distance_uniform,
    martingale_variance_samples,
    null_q_samples,
    significance_test,
    simulate_null,
    slln_study,
    std_normal_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "ColorDistribution",
    "ConditionReport",
    "Decomposition",
    "DegreeSummary",
    "DomainError",
    "GeneratorSpec",
    "Graph",
    "InputError",
    "ModnullError",
    "NullMoments",
    "NullSample",
    "RateRow",
    "SllnResult",
    "SplitMix64",
    "TestReport",
    "be_rate_study",
    "center_decompose",
    "common_neighbor_frobenius",
    "condition_statistics",
    "exact_moments_by_enumeration",
    "gen_er",
    "gen_hub",
    "gen_regular",
    "ks_distance",
    "ks_distance_uniform",
    "martingale_variance",
    "martingale_variance_samples",
    "mix64",
    "modularity",
    "null_moments",
    "null_q_samples",
    "parse_edge_list",
    "parse_generator_spec",
    "parse_probability_text",
    "significance_test",
    "simulate_null",
    "slln_study",
    "std_normal_cdf",
    "stream_seed",
    "tail_bound",
    "validate_coloring",
    "write_edge_list",
]
