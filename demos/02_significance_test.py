"""Is a given partition better than random labeling?  A z-test answers.

Build a graph with planted structure (two dense blocks joined by a few
edges), then score three partitions against the random-labeling null:
the planted one, a random one, and a degree-balanced but wrong one.
Large positive z means more within-community edges than chance explains.
"""

import numpy as np

from modnull import (
    ColorDistribution,
    Graph,
    condition_statistics,
    gen_er,
    significance_test,
)
from modnull.rng import SplitMix64

rng = SplitMix64(2)

# Two ER(60, 0.2) blocks plus a sparse set of cross edges.
block = 60
left = gen_er(block, 0.2, rng.next_u64())
right = gen_er(block, 0.2, rng.next_u64())
edges = left.edges()
edges += [(u + block, v + block) for u, v in right.edges()]
for _ in range(40):
    edges.append((rng.randbelow(block), block + rng.randbelow(block)))
g = Graph(2 * block, edges)
print("graph:", g)

planted = np.array([1] * block + [2] * block)
shuffled = planted[np.argsort(SplitMix64(7).words(2 * block))]

for name, colors in (("planted", planted), ("random relabeling", shuffled)):
    rep = significance_test(g, colors)
    print(f"\n{name} partition:")
    print(f"  Q = {rep.Q:+.4f}   null mean {rep.mu:+.4f}, null sd {rep.sigma:.4f}")
    print(f"  z_sigma = {rep.z_sigma:+.2f}   z_delta = {rep.z_delta:+.2f}")
    print(f"  upper p-value = {rep.p_value:.3g}")

# The normal approximation is an asymptotic statement; these statistics
# summarize how comfortably the degree sequence sits in its regime.
cond = condition_statistics(g)
print("\ndegree-sequence diagnostics:")
print(f"  stat_31 = {cond.stat_31:.3f}, stat_c1 = {cond.stat_c1:.3f}, "
      f"holds_c1 = {cond.holds_c1}")

# Two-sided version, and an explicit (non-observed) null distribution.
rep = significance_test(g, planted, ColorDistribution.uniform(2), sided="two")
print(f"\nplanted vs exact uniform null, two-sided p = {rep.p_value:.3g}")
