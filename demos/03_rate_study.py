"""How fast does standardized modularity become normal as graphs grow?

Monte Carlo estimate of the Kolmogorov distance between the null
distribution of (Q - mu)/delta and the standard normal, across a ladder
of 6-regular graphs.  The distance is compared against the shape
n^{-1/4} log n: the fitted constant stays bounded while the distance
itself falls, and the sigma- and delta-standardizations agree ever more
closely because sigma2/delta2 -> 1.

Runs a reduced version of the full study (smaller sizes and replicate
counts) so it finishes in a few seconds; crank the numbers for the real
thing, or use the CLI:

    modnull be-study --model reg:d=6 --sizes 250,500,1000,2000 \
        --reps 20000 --seed 31415 --out be.csv
"""

from modnull import be_rate_study

REPS = 10000
rows = be_rate_study("reg:d=6", (125, 250, 500, 1000), REPS, 31415,
                     standardization="delta", threads=4)

print(f"{'n':>6} {'m':>7} {'KS(delta)':>10} {'KS(sigma)':>10} "
      f"{'shape':>8} {'fitted C':>9} {'s2/d2':>8}")
for r in rows:
    print(f"{r.n:>6} {r.m:>7} {r.ks_delta:>10.4f} {r.ks_sigma:>10.4f} "
          f"{r.bound_shape:>8.4f} {r.fitted_C:>9.4f} {r.sigma2_over_delta2:>8.5f}")

ks = [r.ks for r in rows]
print("\nKS distance trend:", " -> ".join(f"{k:.4f}" for k in ks))
print("(Monte Carlo noise on each estimate is about %.4f; the full-size"
      % (0.5 / REPS ** 0.5))
print("study in the acceptance suite resolves the decrease cleanly.)")
print("The rate shape only shrinks from "
      f"{rows[0].bound_shape:.3f} to {rows[-1].bound_shape:.3f}; "
      "the implied constant stays bounded.")
