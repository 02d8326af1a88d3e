"""Path-wise decay of rescaled centered modularity.

Under random labeling Q concentrates at its null mean fast enough that
even after inflating by b_n = sqrt(m) / (log n)^2 the centered value
b_n (Q - mu) still dies out along almost every sampling path (the scale
is admissible because b_n log n / sqrt(m) = 1 / log n -> 0).  Each path
draws a fresh coloring at every size of a 6-regular ladder; watch the
values shrink row by row, then look at the per-path verdicts.
"""

from modnull import slln_study

sizes = tuple(125 * 2 ** k for k in range(6))
res = slln_study("reg:d=6", sizes, paths=8, master_seed=42)

header = " ".join(f"{n:>9}" for n in sizes)
print(f"{'path':>4} {header}")
for p, vals in enumerate(res.values.tolist()):
    print(f"{p:>4} " + " ".join(f"{v:>+9.5f}" for v in vals))

print("\nper-path: does the second half stay below the first half in magnitude?")
for s in res.path_summaries:
    print(f"  path {s.path}: first-half max {s.first_half_max:.5f}, "
          f"second-half max {s.second_half_max:.5f}  ->  "
          f"{'decayed' if s.decayed else 'not yet'}")
print(f"\n{res.decayed_paths}/{res.paths} paths decayed on this ladder; "
      "longer ladders push the fraction to one.")
