"""Degree-sequence regularity diagnostics and the exponential tail bound.

The normal approximation for modularity is backed by two degree-sequence
conditions.  Their left-hand sides involve an unspecified absolute
constant, so they are reported as scale-free statistics (left side
divided by the right-side *shape*), never as booleans:

    stat_31  = (kmax / sqrt(m)) * n^{1/2}
    stat_311 = [common-neighbor Frobenius sum / m^2] * n^{5/4} / (log n)^5

The one inequality with an explicit constant 1 does yield a boolean:

    stat_c1  = (kmax / sqrt(m)) * n^{5/8} / (log n)^{5/2},
    holds_c1 = stat_c1 <= 1,

and holds_c1 is sufficient for the second condition above.  ``log`` is
the natural logarithm throughout.

Cost: the degree statistics are O(n + m); the common-neighbor Frobenius
sum is O(m * arboricity) time and bounded memory, from a count of
4-cycles (see :func:`modnull.graph.four_cycles`); A^2 is never formed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .graph import Graph, common_neighbor_frobenius


class ConditionReport(NamedTuple):
    stat_31: float
    stat_311: float
    stat_c1: float
    holds_c1: bool
    n: int
    m: int
    kmax: int


def condition_statistics(g: Graph) -> ConditionReport:
    """Evaluate the three statistics above for one graph (needs n >= 2)."""
    if g.n < 2:
        raise DomainError("condition statistics need n >= 2 (log n must be positive)")
    s = g.summary
    log_n = math.log(g.n)
    ratio = s.kmax / math.sqrt(g.m)
    frob = common_neighbor_frobenius(g)
    stat_31 = ratio * math.sqrt(g.n)
    stat_311 = (frob / (g.m * g.m)) * g.n ** 1.25 / log_n ** 5
    stat_c1 = ratio * g.n ** 0.625 / log_n ** 2.5
    return ConditionReport(
        stat_31=stat_31,
        stat_311=stat_311,
        stat_c1=stat_c1,
        holds_c1=stat_c1 <= 1.0,
        n=g.n,
        m=g.m,
        kmax=s.kmax,
    )


def tail_bound(g: Graph, x: float) -> float:
    """Upper bound on P(|sum over edges of the centered kernel| > x).

    The summands are bounded by 2 on edges, giving the scale
    D = 2 sqrt(m); the bound exp(-x / (4 e D)) is only asserted for
    x > 8 e D, so smaller x is a domain error.
    """
    d_n = 2.0 * math.sqrt(g.m)
    threshold = 8.0 * math.e * d_n
    if not x > threshold:
        raise DomainError(
            f"tail bound needs x > 8*e*D = {threshold!r}, got {x!r}"
        )
    return math.exp(-x / (4.0 * math.e * d_n))
