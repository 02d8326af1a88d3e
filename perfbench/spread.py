"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload null-sample --runs 10 --seconds 25

Runs ``run.py`` once per seed (1..runs unless ``--seeds`` is given), one
run at a time, and prints for every end-to-end metric, gated or
wall-clock, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound from BENCHMARK.json when that
file is present.  This is the steadiness test a benchmark change must
pass, and the parent side of a before/after comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"


def bounds() -> dict[str, float]:
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    seeds = args.seeds or list(range(1, args.runs + 1))

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seeds:
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, check=True,
        )
        record = json.loads((WORK / args.workload / "result.json").read_text())
        failed += record["failed"]
        for name, m in (record["metrics"] | record["wall"]).items():
            if m["value"] is not None:
                values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    bound = bounds()
    print(f"{args.workload}: {len(seeds)} runs, {failed} failed commands")
    for name, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        limit = f"  bound {bound[name]}" if name in bound else ""
        print(f"  {name:18s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"iqr/median {spread:.4f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
