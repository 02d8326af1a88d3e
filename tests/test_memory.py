"""Peak memory and page faults of the CLI commands stay bounded.

Each case runs the CLI in a child interpreter and reads its high-water
mark and minor page faults from ``os.wait4``.  The sampling kernel packs
the colorings of a chunk of replicates side by side into unsigned lanes,
one uint64 word per vertex and lane group.  Each worker allocates its
buffers once: the chunk's colors, a quarter of ``rng.BUDGET`` (2 MiB),
and one scratch array of half of it that holds a block of stream states
and their mixing scratch, then a block of edges' ends and the words
gathered at both and their equality bools, then a gathered degree plane
(K <= 2) or the degree-mass slots; each is one lane group's worth when a
group is larger.  The output arrays are allocated before any word is
drawn.  So what remains is the interpreter, the parsed graph and the color
distribution: about 80 MB for the large graph and 120 MB for the large
K.  The edge-list parse reads the text a block of whole lines at a time,
so the graph costs little more than its text and its edge arrays.  A
kernel whose memory grows with the replicate count, or that holds a
replicates x K table, exceeds the limit by hundreds of MB, and one that
allocates its buffers per chunk faults their pages in again for every
chunk.  Around the kernel, a run holds its sample arrays: the CSV is
written from them a block of rows at a time, and the KS distance scans
the sorted sample in blocks, so a million replicates take tens of MB.
The ER generator skips over vertex pairs and draws its gaps in blocks
within the same byte budget, so generating a graph holds little more
than its edges, and the ``reg`` repair edits its edge keys in place.
The enumeration oracle holds one weight and one Q value per coloring.
Three cases run in process under ``tracemalloc``: the Q of one observed
coloring counts its same-color edges in blocks within ``rng.BUDGET``,
and copies each block's edge ends, not every edge's; and two-color
martingale samples count lower neighbours on the packed lanes, gathered
into the sampler's scratch and added in budget-sized blocks of integer
count sums, not sort keys for every edge.  Two more bound the text
writers, which format a block of rows at a time: an edge list holds its
blocks' text, then that text joined, then decoded, so at most two
copies at once; a CSV holds one block, however many rows it has.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from modnull import (ColorDistribution, Graph, martingale_variance_samples, rng,
                     significance_test, write_edge_list)
from modnull.serialize import write_csv

LIMIT_MB = 250


# A child's ru_maxrss also counts the memory of the process it was forked
# from, here the whole test session.  So the CLI is started by a small
# launcher interpreter, which reaps it and prints its exit code, peak and
# minor page faults.
LAUNCHER = """
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, "-m", "modnull.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def run_cli(*argv, env=None):
    """(peak RSS in MB, minor page faults) of one CLI run, which must succeed."""
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True,
                            text=True, check=True, env=env)
    # The launcher's line comes last, after anything the CLI printed.
    code, maxrss, minflt = map(int, result.stdout.splitlines()[-1].split())
    assert code == 0, result.stderr
    return maxrss / 1024, minflt  # ru_maxrss is in KiB on Linux


def peak_rss_mb(*argv):
    return run_cli(*argv)[0]


def circulant(tmp_path, n, offsets):
    """Edge list of the circulant graph joining i to i + s mod n for each offset s."""
    i = np.arange(n)
    edges = np.concatenate([np.column_stack([i, (i + s) % n]) for s in offsets])
    path = tmp_path / f"circulant_{n}.txt"
    np.savetxt(path, edges, fmt="%d")
    return str(path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_null_sample_memory_bounded_on_a_large_graph(tmp_path):
    # n=2e5, m=6e5: 128 replicates of a 1024-row chunk would add ~600 MB.
    graph = circulant(tmp_path, 200_000, (1, 2, 3))
    out = str(tmp_path / "q.csv")
    assert peak_rss_mb("null-sample", "--graph", graph, "--reps", "128", "--seed", "1",
                       "--out", out) < LIMIT_MB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_null_sample_memory_bounded_by_its_sample_arrays(tmp_path):
    # 1e6 replicates on a 4-edge graph: q, z and the replicate column take
    # 24 MB and the run peaks near 61 MB.  A list of Python rows and the CSV
    # as one string peaked at ~370 MB; writing from columns alone, with the
    # KS grids built over the whole sample, at ~120 MB.
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    out = str(tmp_path / "q.csv")
    assert peak_rss_mb("null-sample", "--graph", str(graph), "--K", "2", "--reps", "1000000",
                       "--seed", "3", "--out", out) < 100


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_compute_memory_bounded_by_the_parse_blocks(tmp_path):
    # n=2e5, m=6e5 (7.7 MB of text): the parse holds the text and a block's
    # temporaries, then the rows, ~80 B per edge, and compute peaks near
    # 80 MB.  Whole-text byte masks and int64 token arrays took ~220 B per
    # edge and peaked at 163 MB.
    graph = circulant(tmp_path, 200_000, (1, 2, 3))
    partition = tmp_path / "colors.txt"
    np.savetxt(partition, np.arange(200_000) % 7 + 1, fmt="%d")
    assert peak_rss_mb("compute", "--graph", graph, "--partition", str(partition),
                       "--out", str(tmp_path / "c.json")) < 110


@pytest.fixture(scope="module")
def million_vertex_graph(tmp_path_factory):
    path = tmp_path_factory.mktemp("reg") / "reg.txt"
    run_cli("generate", "--model", "reg:d=6", "--n", "1000000", "--seed", "1",
            "--out", str(path))
    return str(path)


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
@pytest.mark.parametrize("K", ["2", "3"])
def test_null_sample_memory_bounded_at_a_million_vertices(tmp_path, million_vertex_graph, K):
    # n=1e6, m=3e6: a chunk is one lane group and the scratch one word per
    # vertex (8 MB), and the parse and the graph set the peak, near 230 MB.
    # The edge ends copied whole (48 MB) peaked at 231 and 239 MB; a
    # gather of both ends of every edge at once would add 48 MB more.
    out = str(tmp_path / "q.csv")
    assert peak_rss_mb("null-sample", "--graph", million_vertex_graph, "--K", K,
                       "--reps", "64", "--seed", "1", "--out", out) < LIMIT_MB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_null_sample_memory_bounded_in_the_number_of_colors(tmp_path):
    # K=1e6 uniform colors: a rows x K table of degree masses would add ~1 GB.
    graph = circulant(tmp_path, 60, (1, 2))
    out = str(tmp_path / "q.csv")
    assert peak_rss_mb("null-sample", "--graph", graph, "--K", "1000000", "--reps", "64",
                       "--seed", "1", "--out", out) < LIMIT_MB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_two_color_study_memory_stays_within_the_worker_buffers(tmp_path):
    # K=2 on two threads: the lane equality writes its bools over the
    # gathered words and the degree planes are gathered into the same
    # scratch, so the run peaks near 35.4 MB (2-vCPU VM, numpy 2.4.6).  The
    # XOR/Warren kernel with a degree-mass bincount peaked at 38.2-38.3 MB,
    # and a prototype with its own equality buffer rose above it.
    out = str(tmp_path / "be.csv")
    assert peak_rss_mb("be-study", "--model", "reg:d=6", "--sizes", "250,500,1000,2000",
                       "--reps", "2000", "--seed", "1", "--threads", "2", "--out", out) < 38


def one_coloring_q_peak(K):
    """(tracemalloc peak in bytes, n, m) of a second ``significance_test`` with K
    colors on an n=2.4e5, m=6e5 graph with degrees 4 and 6 (one gathered
    degree plane for K=2)."""
    n = 240_000
    v = np.arange(n)
    even = v[::2]
    g = Graph(n, np.concatenate([np.column_stack([v, (v + 1) % n]),
                                 np.column_stack([v, (v + 2) % n]),
                                 np.column_stack([even, (even + 4) % n])]))
    assert g.m == 600_000
    colors = 1 + v * 7919 % K
    significance_test(g, colors)  # fills the graph's cached degree statistics
    tracemalloc.start()
    try:
        significance_test(g, colors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, n, g.m


@pytest.mark.parametrize("K", [2, 100])
def test_one_coloring_q_holds_no_edge_sized_scratch(K):
    # The coloring, its lanes and the degree planes or weights take a few
    # vertex-sized arrays and the same-color count 2 MiB.  Gathering both
    # ends of every edge at once took 2m words more, 24.7 and 22.0 MB.
    peak, n, m = one_coloring_q_peak(K)
    assert peak < 16 * m + 32 * n + 2 * rng.BUDGET


@pytest.mark.parametrize("K", [2, 100])
def test_one_coloring_q_copies_the_edge_ends_a_block_at_a_time(K):
    # Each block of edges copies its ends' vertex ids into the scratch, so
    # no 16m-byte copy of the edge ends is made: the peak is 8.3 MB for K=2
    # and 5.6 MB for K=100, against 17.6 and 14.9 MB with whole copies.
    peak, n, m = one_coloring_q_peak(K)
    assert peak < 32 * n + 2 * rng.BUDGET


def test_two_color_martingale_samples_hold_no_per_key_temporaries():
    # n=1e5, m=3e5, far above the budget_rows(64) keys of one sorted block:
    # the lane counts hold the lower ends in the order of their upper ends
    # (8 bytes per edge and per vertex without lower neighbours), a few
    # vertex-sized starts and the lower degrees, the worker's colors and
    # scratch, and the sort that orders the ends while it runs; 9.9 MB.  The
    # sorted-key kernel, 44-80 bytes per key of a block of rows, took 31-32 MB.
    n = 100_000
    v = np.arange(n)
    g = Graph(n, np.concatenate([np.column_stack([v, (v + s) % n]) for s in (1, 2, 3)]))
    assert g.m > 8 * rng.budget_rows(64)
    d = ColorDistribution.uniform(2)
    martingale_variance_samples(g, d, 8, 1)
    tracemalloc.start()
    try:
        martingale_variance_samples(g, d, 16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * g.m + 64 * n + 2 * rng.BUDGET


def traced(call):
    """``call()`` and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc traces every Python number the writers make, ~28 times
# slower than a plain run, so these cases shrink the budget to 64 KiB and
# their inputs with it: both still span tens to hundreds of blocks.
def test_edge_list_writer_holds_at_most_two_copies_of_its_text(monkeypatch):
    # m = 1e5 (1.2 MB of text) in 512-edge blocks: the peak is two copies
    # and 0.37 budgets.  Prepending the directive to the joined bytes
    # before decoding them would hold three.
    monkeypatch.setattr(rng, "BUDGET", 64 << 10)
    n = 50_000
    v = np.arange(n)
    g = Graph(n, np.concatenate([np.column_stack([v, (v + s) % n]) for s in (1, 2)]))
    text, peak = traced(lambda: write_edge_list(g))
    assert peak < 2 * len(text) + rng.BUDGET


def test_csv_writer_holds_one_block_whatever_the_rows(tmp_path, monkeypatch):
    # 273-row blocks of 2e3 and 2e4 rows both peak at 0.97 budgets.  With
    # a non-finite mask of every row kept for the whole write, they peaked
    # at 1.3 and 1.9 budgets.
    monkeypatch.setattr(rng, "BUDGET", 64 << 10)
    gen = np.random.default_rng(1)
    peaks = []
    for rows in (2_000, 20_000):
        columns = [np.arange(rows), gen.normal(size=rows), gen.normal(size=rows)]
        path = tmp_path / f"q{rows}.csv"
        peaks.append(traced(lambda: write_csv(path, ["replicate", "q", "z"], columns))[1])
    assert max(peaks) < 2 * rng.BUDGET and peaks[1] < 1.1 * peaks[0], peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_er_generation_memory_bounded_by_the_byte_budget(tmp_path):
    # n=2e5 and np=6: 2e10 pairs, which no per-pair array or scan could
    # hold or finish, and m=6e5 edges; the graph and the writer peak at ~66 MB.
    out = str(tmp_path / "er.txt")
    assert peak_rss_mb("generate", "--model", "er:p=0.00003", "--n", "200000", "--seed", "1",
                       "--out", out) < 80


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_regular_repair_memory_matches_a_run_without_repair(tmp_path):
    # reg:d=6 at n=2e5: seed 2 leaves one stub pair to the switch repair and
    # seed 1 leaves none.  The repair edits the int64 edge keys in place and
    # holds a set of only the stub holders' edges, so both runs peak near
    # 91 MB; a list and a set of 6e5 edge tuples took seed 2 to 165 MB.
    peaks = [
        peak_rss_mb("generate", "--model", "reg:d=6", "--n", "200000", "--seed", seed,
                    "--out", str(tmp_path / f"reg{seed}.txt"))
        for seed in ("1", "2")
    ]
    assert peaks[1] < 1.1 * peaks[0], peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_enumeration_memory_bounded_by_its_two_arrays(tmp_path):
    # 2**20 colorings of a 20-vertex graph: the weights and Q values take
    # 16 MB and chunks of about two int64 rows per coloring stay within the
    # byte budget, so the run peaks near 50 MB.  Chunks of 2**15 colorings
    # of 20 int64 colors each peaked at 70 MB.
    graph = tmp_path / "cycle.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 20}\n" for i in range(20)) + "0 10\n")
    assert peak_rss_mb("enumerate-check", "--graph", str(graph), "--K", "2",
                       "--out", str(tmp_path / "e.json")) < 60


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc settings")
def test_null_sample_page_faults_do_not_grow_with_the_chunk_count(tmp_path):
    # n=1e4, m=3e4, K=32: 64 replicates are a few chunks, 1024 are over a
    # hundred.  glibc is made to map every allocation above 128 KB afresh
    # and to return freed heap at once, the layout in which temporaries
    # made per chunk fault their pages in again for every chunk: a kernel
    # that did so took 136k more faults for the larger run.  With buffers
    # allocated once per worker the growth is the output arrays and the
    # CSV blocks, under 3000 faults (12 MB).
    graph = circulant(tmp_path, 10_000, (1, 2, 3))
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0", MALLOC_MMAP_THRESHOLD_="131072")
    faults = [
        run_cli("null-sample", "--graph", graph, "--K", "32", "--reps", reps, "--seed", "1",
                "--out", str(tmp_path / f"q{reps}.csv"), env=env)[1]
        for reps in ("64", "1024")
    ]
    assert faults[1] - faults[0] < 3000, faults


def overcommit_heuristic():
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() == "0"
    except OSError:
        return False


@pytest.mark.skipif(not overcommit_heuristic(), reason="needs heuristic overcommit (mode 0)")
def test_null_sample_refuses_unallocatable_reps_at_once(tmp_path):
    # 1e11 replicates need 745 GiB of output, which the kernel allocates
    # before drawing any word; the run ends at once under the JSON contract.
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 0\n")
    result = subprocess.run(
        [sys.executable, "-m", "modnull.cli", "null-sample", "--graph", str(graph), "--K", "2",
         "--reps", "100000000000", "--seed", "1", "--out", str(tmp_path / "q.csv")],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 4
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["code"] == 4 and error["message"].startswith("MemoryError")
    assert not (tmp_path / "q.csv").exists()


@pytest.mark.skipif(not overcommit_heuristic(), reason="needs heuristic overcommit (mode 0)")
@pytest.mark.parametrize("largest", [1099511627776, 1152921504606846974])
def test_vertex_count_numpy_can_size_but_not_allocate_exits_4(tmp_path, largest):
    # 8 TiB and 8 EiB of degrees: numpy sizes the array, the allocation
    # fails at once, and the run ends under the JSON contract.
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 {largest}\n")
    result = subprocess.run(
        [sys.executable, "-m", "modnull.cli", "conditions", "--graph", str(graph)],
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 4
    error = json.loads(result.stderr)
    assert error["code"] == 4 and error["message"].startswith("MemoryError")
