"""Run one benchmark command in-process with per-layer spans.

    PYTHONPATH=src python perfbench/traced.py SPANS.json cli ARGS...
    PYTHONPATH=src python perfbench/traced.py SPANS.json martingale ARGS...

Before the command runs, the module-level functions it reaches are
replaced by timing wrappers defined here, so the command executes the
same production code on the same inputs while each call into a layer
adds its duration to a span total.  Nothing under ``src/`` changes.
Totals, counts and the command's exit code are written to SPANS.json.

Times are summed over calls and over threads, so with two worker
threads a layer's total is busy time, not elapsed time.  Names the
package no longer has are skipped, and their totals read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from functools import cached_property

from inputs import lower_wedges


class Recorder:
    """Span totals in seconds and plain counters, shared by all threads."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.graphs = []
        self.names = set()
        # (name, m) of the top-level sampling call in progress.  It is set
        # on the calling thread before any worker starts; workers only read it.
        self.sampling = None
        self._lock = threading.Lock()

    def add(self, name: str, dt: float) -> None:
        with self._lock:
            self.seconds[name] += dt
            if name == "rng.words_s" and self.sampling:
                self.seconds[f"rng.words_in.{self.sampling[0]}"] += dt

    def count(self, name: str, k: int) -> None:
        with self._lock:
            self.counts[name] += int(k)

    def prime(self) -> None:
        """Open every known span once, empty.

        A layer the command never reaches then reads the bare cost of
        its span (well under a microsecond) rather than exactly 0.
        """
        for name in sorted(self.names):
            t = time.perf_counter()
            self.add(name, time.perf_counter() - t)

    def result(self) -> dict:
        counts = dict(self.counts)
        counts["graph.lower_wedges"] = sum(lower_wedges(*g) for g in self.graphs)
        return {"seconds": dict(self.seconds), "counts": counts}


def timed(rec: Recorder, name: str, fn, after=None):
    """Wrap ``fn`` so each call adds its duration to span ``name``.

    ``after(result, args)`` runs outside the timed region, for counters.
    """
    rec.names.add(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.add(name, time.perf_counter() - t)
        if after is not None:
            after(out, args)
        return out

    return wrapper


def _patch(rec, module: str, attr: str, name: str, after=None) -> None:
    rec.names.add(name)
    mod = importlib.import_module(module)
    fn = getattr(mod, attr, None)
    if fn is not None:
        setattr(mod, attr, timed(rec, name, fn, after))


def _patch_cached(rec, cls, attr: str, name: str) -> None:
    prop = cls.__dict__.get(attr)
    if isinstance(prop, cached_property):
        new = cached_property(timed(rec, name, prop.func))
        new.__set_name__(cls, attr)
        setattr(cls, attr, new)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the benchmark's commands reach."""
    from modnull.colors import ColorDistribution
    from modnull.graph import Graph

    def parsed(g, args):
        rec.count("graph.input_bytes", len(args[0]))

    # simulation.bytes_computed: bytes of the arrays the Q kernel
    # materializes between stages (uniforms, colorings, and the colors
    # gathered at both endpoints of every edge), from their sizes.
    def words(u, args):
        rec.count("rng.words", u.size)
        if rec.sampling and rec.sampling[0] == "null_q":
            rec.count("simulation.bytes_computed", u.nbytes)

    def colorings(c, args):
        if rec.sampling and rec.sampling[0] == "null_q":
            gathered = 2 * rec.sampling[1] * c.shape[0] * c.itemsize
            rec.count("simulation.bytes_computed", c.nbytes + gathered)

    def er_pairs(edges, args):
        rec.count("generators.er_pairs", args[0] * (args[0] - 1) // 2)

    for module in ("modnull.cli", "modnull.graph"):
        _patch(rec, module, "parse_edge_list", "graph.parse_s", parsed)
    _patch(rec, "modnull.conditions", "common_neighbor_frobenius", "graph.frobenius_s")
    _patch(rec, "modnull.cli", "condition_statistics", "conditions.stats_s")
    for module in ("modnull.cli", "modnull.simulation"):
        _patch(rec, module, "null_moments", "moments.null_moments_s")
        _patch(rec, module, "modularity", "moments.modularity_s")
    _patch(rec, "modnull.simulation", "stream_seed_array", "rng.words_s")
    _patch(rec, "modnull.simulation", "uniform_matrix", "rng.words_s", words)
    _patch(rec, "modnull.simulation", "_null_colorings", "simulation.colorings_s", colorings)
    _patch(rec, "modnull.simulation", "ks_distance", "simulation.ks_s")
    _patch(rec, "modnull.cli", "be_rate_study", "simulation.be_study_s")
    _patch(rec, "modnull.cli", "slln_study", "simulation.slln_study_s")
    _patch(rec, "modnull.generators", "gen_regular", "generators.gen_regular_s")
    _patch(rec, "modnull.generators", "gen_er", "generators.gen_er_s")
    _patch(rec, "modnull.generators", "_er_edge_array", "generators.er_scan_s", er_pairs)
    _patch(rec, "modnull.cli", "csv_text", "serialize.csv_s")
    _patch_cached(rec, Graph, "summary", "graph.summary_s")
    _patch_cached(rec, Graph, "adjacency", "graph.adjacency_s")
    ColorDistribution.sample_coloring = timed(
        rec, "colors.sample_coloring_s", ColorDistribution.sample_coloring
    )

    def sampling(attr: str, key: str, name: str):
        import modnull.simulation as sim

        rec.names.add(name)
        fn = getattr(sim, attr, None)
        if fn is None:
            return
        inner = timed(rec, name, fn)

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            rec.sampling = (key, g.m)
            try:
                return inner(g, *args, **kwargs)
            finally:
                rec.sampling = None

        setattr(sim, attr, wrapper)

    sampling("null_q_samples", "null_q", "simulation.null_q_s")
    sampling("martingale_variance_samples", "martingale", "simulation.martingale_s")
    # Filled by run.py from a separate reps=1 call; primed like the rest.
    rec.names.add("simulation.martingale_first_s")

    init = Graph.__init__

    @functools.wraps(init)
    def graph_init(self, n, edges):
        init(self, n, edges)
        rec.count("graph.edges", self.m)
        rec.graphs.append((self.n, self.edge_lo, self.edge_hi))

    Graph.__init__ = graph_init


def main(argv: list[str]) -> int:
    spans_path, kind, *args = argv
    rec = Recorder()
    install(rec)
    rec.prime()
    if kind == "cli":
        from modnull.cli import main as run
    else:
        from martingale_cmd import main as run
    code = run(args)
    out = rec.result()
    out["exit_code"] = code
    with open(spans_path, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
