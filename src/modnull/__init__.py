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

Names load on first use: ``import modnull`` imports no submodule (and so
no numpy), and each public name, or submodule such as ``modnull.rng``,
is imported the first time it is read.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "colors": ("ColorDistribution", "parse_probability_text", "validate_coloring"),
    "conditions": ("ConditionReport", "condition_statistics", "tail_bound"),
    "errors": ("DomainError", "InputError", "ModnullError"),
    "generators": ("GeneratorSpec", "gen_er", "gen_hub", "gen_regular", "parse_generator_spec"),
    "graph": ("DegreeSummary", "Graph", "common_neighbor_frobenius", "parse_edge_list",
              "write_edge_list"),
    "moments": ("Decomposition", "NullMoments", "center_decompose", "exact_moments_by_enumeration",
                "martingale_variance", "modularity", "null_moments"),
    "rng": ("SplitMix64", "mix64", "stream_seed"),
    "serialize": (),
    "simulation": ("NullSample", "RateRow", "SllnResult", "TestReport", "be_rate_study",
                   "ks_distance", "ks_distance_uniform", "martingale_variance_samples",
                   "null_q_samples", "significance_test", "simulate_null", "slln_study",
                   "std_normal_cdf"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
