"""Peak memory of ``null-sample`` and ``generate`` stays bounded.

Each case runs the CLI in a child interpreter and reads its high-water
mark from ``os.wait4``.  The sampling kernel holds one chunk of a few MB
per worker, so what remains is the interpreter, the parsed graph and the
color distribution: about 190 MB for the large graph and 120 MB for the
large K.  A kernel whose memory grows with the replicate count, or that
holds a replicates x K table, exceeds the limit by hundreds of MB.
The ER generator skips over vertex pairs and draws its gaps in blocks
within the same byte budget, so generating a graph holds little more
than its edges.
"""

import subprocess
import sys

import numpy as np
import pytest

LIMIT_MB = 250


# A child's ru_maxrss also counts the memory of the process it was forked
# from, here the whole test session.  So the CLI is started by a small
# launcher interpreter, which reaps it and prints its exit code and peak.
LAUNCHER = """
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.executable, [sys.executable, "-m", "modnull.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(*argv):
    result = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], capture_output=True,
                            text=True, check=True)
    # The launcher's line comes last, after anything the CLI printed.
    code, maxrss = map(int, result.stdout.splitlines()[-1].split())
    assert code == 0, result.stderr
    return maxrss / 1024  # ru_maxrss is in KiB on Linux


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
def test_null_sample_memory_bounded_in_the_number_of_colors(tmp_path):
    # K=1e6 uniform colors: a rows x K table of degree masses would add ~1 GB.
    graph = circulant(tmp_path, 60, (1, 2))
    out = str(tmp_path / "q.csv")
    assert peak_rss_mb("null-sample", "--graph", graph, "--K", "1000000", "--reps", "64",
                       "--seed", "1", "--out", out) < LIMIT_MB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_er_generation_memory_bounded_by_the_byte_budget(tmp_path):
    # n=2e5 and np=6: 2e10 pairs, which no per-pair array or scan could
    # hold or finish, and m=6e5 edges; the graph and the writer peak at ~66 MB.
    out = str(tmp_path / "er.txt")
    assert peak_rss_mb("generate", "--model", "er:p=0.00003", "--n", "200000", "--seed", "1",
                       "--out", out) < 80
