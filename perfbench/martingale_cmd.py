"""Run the library-only martingale-variance kernel as one command.

No CLI subcommand reaches ``martingale_variance_samples``, so the
benchmark runs it through this script in a fresh interpreter, the same
way it runs the CLI commands:

    PYTHONPATH=src python perfbench/martingale_cmd.py \\
        --graph g.txt --reps 1024 --seed 7 --out v2.npy

The graph is an edge list in the CLI's format; the output is the float64
array of per-replicate normalized conditional variances.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from modnull import ColorDistribution, graph, simulation

    # Both calls go through the module attribute, so a traced run can wrap them.
    g = graph.parse_edge_list(Path(args.graph).read_text())
    v2 = simulation.martingale_variance_samples(
        g, ColorDistribution.uniform(2), args.reps, args.seed, threads=1
    )
    np.save(args.out, v2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
