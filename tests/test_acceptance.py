"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Statistical criteria run on pinned master seeds, so every assertion below
is a deterministic function of the code; run with ``pytest -s`` to see
the per-criterion lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import special

from conftest import (centered_kernel, cond_cross_moment, cond_second_moment, er_corpus,
                      random_distribution, standard_distributions)
from modnull import (
    ColorDistribution,
    Graph,
    be_rate_study,
    center_decompose,
    condition_statistics,
    exact_moments_by_enumeration,
    gen_er,
    gen_hub,
    gen_regular,
    ks_distance_uniform,
    martingale_variance_samples,
    modularity,
    null_moments,
    simulate_null,
    slln_study,
)
from modnull.rng import stream_seed

BE_STUDY_SEED = 31415
SLLN_SEED = 42
V2_SEED = 4001
PVALUE_SEED = 9001


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def corpus_graphs():
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    p3 = Graph(3, [(0, 1), (1, 2)])
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    k13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
    return [triangle, p3, c5, k13] + er_corpus()


def test_criterion_01_exact_moment_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for g in corpus_graphs():
        for dist in standard_distributions():
            mom = null_moments(g, dist)
            mu_e, var_e = exact_moments_by_enumeration(g, dist)
            worst = max(worst, rel_err(mom.mu, mu_e), rel_err(mom.sigma2, var_e))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 30.0
    report(1, ok, f"oracle equivalence on {cases} cases: max rel err {worst:.3e}, "
                  f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_decomposition_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 24))
        g = gen_er(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(0, 2 ** 32)))
        dist = random_distribution(rng, max_k=5)
        colors = dist.sample_coloring(g.n, int(rng.integers(0, 2 ** 32)))
        dec = center_decompose(g, colors, dist)
        q = modularity(g, colors)
        err = abs(dec.reconstructed_Q - q) / max(abs(q), 1e-3)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    report(2, ok, f"decomposition reconstructs Q on 1000 triples: max rel err "
                  f"{worst:.3e}, {elapsed:.1f}s (< 10s)")


def test_criterion_03_conditional_moment_identities():
    rng = np.random.default_rng(303)
    worst_moment = 0.0
    worst_mean = 0.0
    for _ in range(1000):
        d = random_distribution(rng, max_k=6)
        for a in range(1, d.K + 1):
            brute = math.fsum(
                d.p[c - 1] * centered_kernel(d, a, c) ** 2 for c in range(1, d.K + 1)
            )
            worst_moment = max(worst_moment, abs(cond_second_moment(d, a) - brute))
            for b in range(1, d.K + 1):
                brute = math.fsum(
                    d.p[c - 1] * centered_kernel(d, a, c) * centered_kernel(d, b, c)
                    for c in range(1, d.K + 1)
                )
                worst_moment = max(worst_moment, abs(cond_cross_moment(d, a, b) - brute))
        mean_csm = math.fsum(d.p[a - 1] * cond_second_moment(d, a) for a in range(1, d.K + 1))
        mean_ccm = math.fsum(
            d.p[a - 1] * d.p[b - 1] * cond_cross_moment(d, a, b)
            for a in range(1, d.K + 1)
            for b in range(1, d.K + 1)
        )
        worst_mean = max(worst_mean, abs(mean_csm - d.r1), abs(mean_ccm))
    ok = worst_moment <= 1e-14 and worst_mean <= 1e-12
    report(3, ok, f"conditional moments vs brute force: max err {worst_moment:.3e} "
                  f"(<= 1e-14), expectation identities {worst_mean:.3e} (<= 1e-12)")


def test_criterion_04_martingale_variance_normalization():
    start = time.perf_counter()
    g = gen_regular(500, 6, stream_seed(V2_SEED, 0))
    d = ColorDistribution.uniform(2)
    v2 = martingale_variance_samples(g, d, 10000, stream_seed(V2_SEED, 1))
    se = v2.std(ddof=1) / math.sqrt(v2.size)
    gap = abs(float(v2.mean()) - 1.0)
    elapsed = time.perf_counter() - start
    ok = gap <= 4 * se and elapsed < 120.0
    report(4, ok, f"mean martingale variance {v2.mean():.6f} within 4 SE "
                  f"(|gap|/SE = {gap / se:.2f}), {elapsed:.1f}s (< 2min)")


@pytest.fixture(scope="module")
def rate_study_rows():
    start = time.perf_counter()
    rows = be_rate_study(
        "reg:d=6", (250, 500, 1000, 2000), 20000, BE_STUDY_SEED, standardization="delta"
    )
    return rows, time.perf_counter() - start


def test_criterion_05_berry_esseen_trend(rate_study_rows):
    rows, elapsed = rate_study_rows
    ks = [r.ks for r in rows]
    decreasing = all(b < a for a, b in zip(ks, ks[1:]))
    factor = ks[0] / ks[-1]
    c0 = rows[0].fitted_C
    bounded = all(r.ks <= c0 * r.bound_shape * (1 + 1e-12) for r in rows)
    ok = decreasing and factor >= 1.5 and bounded and elapsed < 600.0
    report(5, ok, f"KS by_delta {['%.4f' % k for k in ks]} strictly decreasing="
                  f"{decreasing}, ks(250)/ks(2000)={factor:.2f} (>= 1.5), "
                  f"all below fitted bound={bounded}, {elapsed:.0f}s single-threaded (< 10min)")


def test_criterion_06_sigma_delta_interchangeable(rate_study_rows):
    rows, _ = rate_study_rows
    last = rows[-1]
    ks_gap = abs(last.ks_sigma - last.ks_delta)
    ratio_gaps = [abs(r.sigma2_over_delta2 - 1.0) for r in rows]
    ratio_decreasing = all(b < a for a, b in zip(ratio_gaps, ratio_gaps[1:]))
    ok = ks_gap <= 0.01 and ratio_decreasing
    report(6, ok, f"|KS_sigma - KS_delta| at n=2000 is {ks_gap:.5f} (<= 0.01), "
                  f"|sigma2/delta2 - 1| decreasing={ratio_decreasing}")


def test_criterion_07_slln_pathwise_decay():
    start = time.perf_counter()
    sizes = tuple(125 * 2 ** k for k in range(6))
    res = slln_study("reg:d=6", sizes, 50, SLLN_SEED)
    elapsed = time.perf_counter() - start
    ok = res.decayed_paths >= 45 and elapsed < 300.0
    report(7, ok, f"second-half max below first-half max in {res.decayed_paths}/50 "
                  f"paths (>= 45), {elapsed:.1f}s (< 5min)")


def test_criterion_08_condition_checker_behavior():
    stat_ok = True
    for d in (2, 4, 6):
        rep = condition_statistics(gen_regular(400, d, 800 + d))
        stat_ok = stat_ok and abs(rep.stat_31 - math.sqrt(2 * d)) <= 1e-12
    big = condition_statistics(gen_regular(10000, 6, 801))
    hub_ok = True
    hub_stats = []
    for n in (100, 1000, 10000):
        rep = condition_statistics(gen_hub(n, 3.0 / n, 802))
        hub_stats.append(rep.stat_31)
        hub_ok = hub_ok and rep.stat_31 >= 0.5
    ok = stat_ok and big.holds_c1 and hub_ok
    report(8, ok, f"stat_31=sqrt(2d) on regular graphs={stat_ok}, holds_c1 at "
                  f"n=10^4={big.holds_c1}, hub stat_31={['%.1f' % s for s in hub_stats]} "
                  f"all >= 0.5")


def test_criterion_09_p_value_calibration():
    g = gen_regular(1000, 6, stream_seed(PVALUE_SEED, 0))
    s = simulate_null(g, ColorDistribution.uniform(2), 10000, stream_seed(PVALUE_SEED, 1))
    p = 0.5 * special.erfc(s.samples / math.sqrt(2.0))
    ks = ks_distance_uniform(p)
    ok = ks <= 0.03
    report(9, ok, f"KS(upper p-values, uniform) = {ks:.4f} (<= 0.03) over 10^4 replicates")


def test_criterion_10_cli_byte_determinism(tmp_path):
    def run(name, threads):
        out = tmp_path / f"{name}-t{threads}.csv"
        cmd = [
            sys.executable, "-m", "modnull.cli", "be-study",
            "--model", "reg:d=6", "--sizes", "50,100", "--reps", "200",
            "--seed", "77", "--threads", str(threads), "--out", str(out),
        ]
        assert subprocess.run(cmd, capture_output=True).returncode == 0
        summary = tmp_path / f"{name}-t{threads}.summary.json"
        return out.read_bytes(), summary.read_bytes()

    first = run("a", 1)
    again = run("b", 1)
    wide = run("c", 8)
    study_ok = first == again == wide

    def run_null(name, threads):
        g_path = tmp_path / "g.txt"
        subprocess.run(
            [sys.executable, "-m", "modnull.cli", "generate", "--model", "reg:d=6",
             "--n", "60", "--seed", "5", "--out", str(g_path)],
            capture_output=True, check=True,
        )
        out = tmp_path / f"{name}-t{threads}.csv"
        cmd = [
            sys.executable, "-m", "modnull.cli", "null-sample", "--graph", str(g_path),
            "--K", "2", "--reps", "500", "--seed", "13",
            "--threads", str(threads), "--out", str(out),
        ]
        assert subprocess.run(cmd, capture_output=True).returncode == 0
        summary = tmp_path / f"{name}-t{threads}.summary.json"
        return out.read_bytes(), summary.read_bytes()

    null_ok = run_null("x", 1) == run_null("y", 1) == run_null("z", 8)
    ok = study_ok and null_ok
    report(10, ok, f"byte-identical CSV/JSON across repeated runs and worker counts "
                   f"1 vs 8: be-study={study_ok}, null-sample={null_ok}")
