"""The four benchmark workloads: their inputs, commands and output checks.

Each workload turns a seed into input files and a list of commands.  A
command is one fresh interpreter: either the README CLI
(``python -m modnull.cli ...``) or, for the library-only martingale
kernel, ``martingale_cmd.py``.  Sizes were chosen on a 2-core, 8 GB
machine so one pass of a workload takes a few seconds and peaks at
most near 1.5 GB; replicate counts are scaled down from a user's typical run so a
measured run holds several passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs

NULL_SAMPLE = dict(n=10_000, m=30_000, tail=1.5, kcap=1000, colors=32, alpha=0.5, reps=2048)
BE_STUDY = dict(model="reg:d=6", d=6, sizes=[250, 500, 1000, 2000], reps=10_000, threads=2)
SLLN_STUDY = dict(model="er:p=0.002", sizes=[500, 1000, 2000, 4000, 8000], paths=50)
INGEST = dict(n=200_000, m=600_000, tail=1.5, kcap=1000, colors=100, alpha=0.5)
MARTINGALE = dict(n=3000, m=9000, tail=1.3, kcap=150, reps=1024)


@dataclass
class Command:
    """One fresh-interpreter run plus how to check what it wrote."""

    label: str
    kind: str  # "cli" or "martingale"
    args: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]
    threads: int = 1
    replicates: int = 0
    edges: int = 0


@dataclass
class Plan:
    commands: list[Command]
    fingerprints: dict = field(default_factory=dict)
    # Run only in traced passes: the martingale kernel's reps=1 call.
    first_call: list[Command] = field(default_factory=list)


def _csv_outputs(path: Path) -> list[Path]:
    return [path, path.with_name(path.stem + ".summary.json")]


def null_sample(work: Path, seed: int) -> Plan:
    """The calibration a user runs on their own graph: large n, few rows.

    K=32 because per-color costs that a K=2 run hides show up here.
    """
    p = NULL_SAMPLE
    g = inputs.make_graph(work, "null_sample", [seed, 1], p["n"], p["m"], p["tail"],
                          p["kcap"], p["colors"], p["alpha"])
    out = work / "null_sample.csv"
    cmd = Command(
        "null-sample", "cli",
        ["null-sample", "--graph", str(g["files"]["graph"]),
         "--partition", str(g["files"]["partition"]), "--reps", str(p["reps"]),
         "--seed", str(seed), "--threads", "1", "--out", str(out)],
        _csv_outputs(out),
        lambda: checks.check_null_sample(out, g, p["reps"], seed),
        replicates=p["reps"], edges=p["m"],
    )
    return Plan([cmd], {"null_sample": g["fingerprint"]})


def studies(work: Path, seed: int) -> Plan:
    """The README studies: many short kernel rows on two threads, both
    generators, the ER pair scan and slln's per-path sampling loop.

    slln graphs are not counted in ``edges``: the command does not
    report their size.
    """
    be, sl = BE_STUDY, SLLN_STUDY
    be_out, sl_out = work / "be.csv", work / "slln.csv"
    be_cmd = Command(
        "be-study", "cli",
        ["be-study", "--model", be["model"], "--sizes", ",".join(map(str, be["sizes"])),
         "--reps", str(be["reps"]), "--seed", str(seed), "--threads", str(be["threads"]),
         "--out", str(be_out)],
        _csv_outputs(be_out),
        lambda: checks.check_be_study(be_out, be["sizes"], seed, be["d"]),
        threads=be["threads"], replicates=be["reps"] * len(be["sizes"]),
        edges=sum(n * be["d"] // 2 for n in be["sizes"]),
    )
    sl_cmd = Command(
        "slln-study", "cli",
        ["slln-study", "--model", sl["model"], "--sizes", ",".join(map(str, sl["sizes"])),
         "--reps", str(sl["paths"]), "--seed", str(seed), "--out", str(sl_out)],
        _csv_outputs(sl_out),
        lambda: checks.check_slln(sl_out, sl["sizes"], sl["paths"]),
        replicates=sl["paths"] * len(sl["sizes"]),
    )
    spec = {
        "be_study": {k: be[k] for k in ("model", "sizes", "reps", "threads")} | {"seed": seed},
        "slln_study": {k: sl[k] for k in ("model", "sizes", "paths")} | {"seed": seed},
    }
    return Plan([be_cmd, sl_cmd], spec)


def ingest(work: Path, seed: int) -> Plan:
    """Parse, degree statistics, exact moments and the conditions' A^2
    product on a large graph, with no sampling.  Degrees are capped near
    1e3 because an uncapped tail makes A^2 too large for an 8 GB machine.
    """
    p = INGEST
    g = inputs.make_graph(work, "ingest", [seed, 3], p["n"], p["m"], p["tail"], p["kcap"],
                          p["colors"], p["alpha"])
    out = work / "test.json"
    cmd = Command(
        "test", "cli",
        ["test", "--graph", str(g["files"]["graph"]),
         "--partition", str(g["files"]["partition"]), "--out", str(out)],
        [out],
        lambda: checks.check_test(out, g),
        replicates=1, edges=p["m"],
    )
    return Plan([cmd], {"ingest": g["fingerprint"]})


def martingale(work: Path, seed: int) -> Plan:
    """The only entry to the wedge-based v2 kernel; no CLI command reaches
    it, and its cost scales with lower wedges rather than edges.
    """
    p = MARTINGALE
    g = inputs.make_graph(work, "martingale", [seed, 4], p["n"], p["m"], p["tail"], p["kcap"])

    def command(label: str, reps: int) -> Command:
        out = work / f"{label}.npy"
        return Command(
            label, "martingale",
            ["--graph", str(g["files"]["graph"]), "--reps", str(reps),
             "--seed", str(seed), "--out", str(out)],
            [out],
            lambda: checks.check_martingale(out, reps, g, seed),
            replicates=reps, edges=p["m"],
        )

    return Plan([command("martingale", p["reps"])], {"martingale": g["fingerprint"]},
                first_call=[command("martingale-first", 1)])


WORKLOADS = {
    "null-sample": null_sample,
    "studies": studies,
    "ingest": ingest,
    "martingale": martingale,
}
