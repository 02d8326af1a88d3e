"""modnull benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload null-sample --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` through PYTHONPATH and never installed.  With ``--trace 0`` the
workload's commands run as fresh interpreters, one after another, again
and again for ``--seconds``; each child is reaped with ``os.wait4`` so
its CPU time, peak RSS and page faults are its own.  With ``--trace 1``
one untraced pass is followed by traced passes (``traced.py``) that run
the same commands with per-layer spans.  Every output is checked by
independent recomputation (``checks.py``) or, after its first check,
for identical bytes.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
full record (machine, input fingerprints, every sample) is written to
``perfbench/_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
# The checks import the package under test from src/, never an installed copy.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS, Command, Plan  # noqa: E402

# A run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0

# The gated end-to-end metrics (BENCHMARK.json).  Wall-clock figures are
# printed and recorded beside them but not gated: on a shared VM the host
# steals CPU in bursts of tens of seconds, and the wall/CPU gap of a pass
# tracks the steal counter in /proc/stat, so wall-based metrics spread
# wider across runs than any usable bound.  CPU time and memory do not.
END_TO_END = {
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
WALL = {
    "wall_s": "s",
    "replicates_per_s": "1/s",
    "edges_per_s": "1/s",
    "setup_wall_s": "s",
    "steal_s": "s",
}

PER_LAYER = {
    "graph.parse_s": "s",
    "graph.summary_s": "s",
    "graph.adjacency_s": "s",
    "graph.frobenius_s": "s",
    "graph.edges": "count",
    "graph.input_bytes": "B",
    "graph.lower_wedges": "count",
    "conditions.stats_s": "s",
    "moments.modularity_s": "s",
    "moments.null_moments_s": "s",
    "rng.words_s": "s",
    "rng.words": "count",
    "simulation.null_q_s": "s",
    "simulation.kernel_self_s": "s",
    "simulation.colorings_s": "s",
    "simulation.bytes_computed": "B",
    "proc.minor_faults": "count",
    "simulation.ks_s": "s",
    "simulation.be_study_s": "s",
    "simulation.slln_study_s": "s",
    "simulation.parallel_eff": "ratio",
    "simulation.martingale_first_s": "s",
    "simulation.martingale_s": "s",
    "generators.gen_regular_s": "s",
    "generators.gen_er_s": "s",
    "generators.er_scan_s": "s",
    "generators.er_pairs": "count",
    "colors.sample_coloring_s": "s",
    "serialize.csv_s": "s",
    "serialize.bytes_out": "B",
    "cli.setup_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Proc:
    """What one reaped child cost."""

    wall: float
    cpu: float
    rss_mb: float
    minflt: int
    code: int
    log: str


class Runner:
    """Starts children one at a time, each reaped before the next starts."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv: list[str], log: Path) -> Proc:
        timeout = max(1.0, self.deadline - time.monotonic())
        with log.open("wb") as fh:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                     stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)
        return Proc(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            minflt=usage.ru_minflt,
            code=code,
            log=log.read_text(errors="replace")[-2000:],
        )


def argv_for(cmd: Command, spans: Path | None = None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "traced.py"), str(spans), cmd.kind, *cmd.args]
    if cmd.kind == "cli":
        return [sys.executable, "-m", "modnull.cli", *cmd.args]
    return [sys.executable, str(HERE / "martingale_cmd.py"), *cmd.args]


def digest(paths: list[Path]) -> str | None:
    h = hashlib.sha256()
    for p in paths:
        if not p.is_file():
            return None
        h.update(p.read_bytes())
    return h.hexdigest()


class Checker:
    """First success is checked by recomputation; later runs must match its bytes."""

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def judge(self, cmd: Command, proc: Proc) -> bool:
        self.attempted += 1
        errs = []
        if proc.code != 0:
            errs = [f"{cmd.label}: exit code {proc.code}: {proc.log.strip()[-400:]}"]
        else:
            d = digest(cmd.outputs)
            if d is None:
                errs = [f"{cmd.label}: an output file is missing"]
            elif cmd.label not in self.reference:
                try:
                    errs = cmd.check()
                except Exception:  # a malformed output must count, not abort the run
                    errs = [f"{cmd.label}: check raised {traceback.format_exc(limit=2)}"]
                if not errs:
                    self.reference[cmd.label] = d
            elif d != self.reference[cmd.label]:
                errs = [f"{cmd.label}: outputs differ from the first checked run"]
        self.failed += bool(errs)
        self.failures.extend(errs)
        return not errs


def run_pass(runner: Runner, checker: Checker, plan: Plan, work: Path) -> list[Proc]:
    procs = []
    for i, cmd in enumerate(plan.commands):
        for out in cmd.outputs:
            out.unlink(missing_ok=True)
        proc = runner.run(argv_for(cmd), work / f"cmd{i}.log")
        checker.judge(cmd, proc)
        procs.append(proc)
    return procs


def traced_pass(runner: Runner, checker: Checker, plan: Plan, work: Path):
    """Run every command traced; return (wall total, summed spans, summed counts)."""
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    wall = 0.0
    for i, cmd in enumerate(plan.commands + plan.first_call):
        spans = work / f"spans{i}.json"
        spans.unlink(missing_ok=True)
        for out in cmd.outputs:
            out.unlink(missing_ok=True)
        proc = runner.run(argv_for(cmd, spans), work / f"traced{i}.log")
        if i >= len(plan.commands):
            # The reps=1 call: only its martingale span is kept, under its own name.
            checker.attempted += 1
            if proc.code != 0 or not spans.is_file():
                checker.failed += 1
                checker.failures.append(f"{cmd.label}: traced first call failed")
                continue
            first = json.loads(spans.read_text())["seconds"].get("simulation.martingale_s", 0.0)
            seconds["simulation.martingale_first_s"] = first
            continue
        wall += proc.wall
        if checker.judge(cmd, proc) and spans.is_file():
            rec = json.loads(spans.read_text())
            for k, v in rec["seconds"].items():
                seconds[k] = seconds.get(k, 0.0) + v
            for k, v in rec["counts"].items():
                counts[k] = counts.get(k, 0) + v
    return wall, seconds, counts


def setup_time(runner: Runner, work: Path) -> Proc:
    """One fresh-interpreter ``import modnull.cli``."""
    proc = runner.run([sys.executable, "-c", "import modnull.cli"], work / "setup.log")
    if proc.code != 0:
        raise SystemExit(f"cannot import modnull.cli from {ROOT / 'src'}:\n{proc.log}")
    return proc


def steal_seconds() -> float | None:
    """Time the host has taken from this VM's CPUs, summed over CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as (percent, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(values: list[float]) -> str:
    t = tail(values)
    if t is None:
        return f"median of {len(values)}; no tail percentile (needs >= 11 samples)"
    return f"median of {len(values)}; p{t[0]:.0f} = {t[1]:.6g}"


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import numpy
        import scipy

        info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
    except ImportError:
        pass
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_kb"] = int(line.split()[1])
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = {(c / "level").read_text().strip(): (c / "size").read_text().strip()
                  for c in caches.glob("index*")}
        info["llc"] = levels[max(levels)] if levels else None
    except OSError:
        pass
    # A driver's checkout may be a plain copy; src_sha256 identifies the code either way.
    git = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    info["git_commit"] = git.stdout.strip() if git and git.returncode == 0 else None
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    info["src_sha256"] = src.hexdigest()
    return info


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float,
            host: dict) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(deadline)
    checker = Checker()
    setup_time(runner, work)  # warm-up: compiles src/ to bytecode on a first run
    plan = WORKLOADS[name](work, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": host, "inputs": plan.fingerprints}

    def one_pass():
        if trace:
            return traced_pass(runner, checker, plan, work)
        return run_pass(runner, checker, plan, work)

    # A traced run starts with one untraced pass: the base of the overhead,
    # and the source of the page-fault and parallel-efficiency figures.
    untraced = run_pass(runner, checker, plan, work) if trace else None
    steal_before = steal_seconds()
    start = time.monotonic()
    passes, rounds, setup = [], [], []
    while not rounds or time.monotonic() - start + statistics.median(rounds) <= seconds:
        t = time.monotonic()
        passes.append(one_pass())
        # One import per pass, so setup_s samples the same stretch of time
        # as the passes rather than only its start.
        setup.append(setup_time(runner, work))
        rounds.append(time.monotonic() - t)
    steal_after = steal_seconds()
    samples = {"setup_s": [p.cpu for p in setup], "setup_wall_s": [p.wall for p in setup]}
    if not trace:
        samples.update(
            wall_s=[sum(p.wall for p in ps) for ps in passes],
            cpu_s=[sum(p.cpu for p in ps) for ps in passes],
            peak_rss_mb=[max(p.rss_mb for p in ps) for ps in passes],
        )
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        wall = metrics["wall_s"]
        metrics["replicates_per_s"] = sum(c.replicates for c in plan.commands) / wall
        metrics["edges_per_s"] = sum(c.edges for c in plan.commands) / wall
        if steal_before is not None and steal_after is not None:
            metrics["steal_s"] = steal_after - steal_before
        record["wall"] = {k: {"value": metrics.get(k), "unit": u} for k, u in WALL.items()}
        units = END_TO_END
    else:
        samples["trace_wall_s"] = [t[0] for t in passes]
        metrics = per_layer(plan, untraced, passes, setup)
        record["untraced_pass_wall_s"] = sum(p.wall for p in untraced)
        units = PER_LAYER
    record["samples"] = samples
    record.update(attempted=checker.attempted, failed=checker.failed, failures=checker.failures)
    record["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    return record


def per_layer(plan: Plan, untraced: list[Proc], traced: list, setup: list[Proc]) -> dict:
    def med(get):
        return statistics.median(get(t) for t in traced)

    keys = {k for t in traced for k in (*t[1], *t[2])}
    out = {k: med(lambda t, k=k: t[1].get(k, t[2].get(k, 0))) for k in keys}
    for k in PER_LAYER:
        out.setdefault(k, 0)
    out["simulation.kernel_self_s"] = med(
        lambda t: t[1].get("simulation.null_q_s", 0.0) - t[1].get("rng.words_in.null_q", 0.0)
    )
    main = max(range(len(plan.commands)), key=lambda i: plan.commands[i].threads)
    p = untraced[main]
    out["simulation.parallel_eff"] = p.cpu / (p.wall * plan.commands[main].threads)
    out["proc.minor_faults"] = sum(q.minflt for q in untraced)
    out["serialize.bytes_out"] = sum(o.stat().st_size for c in plan.commands
                                     for o in c.outputs if o.is_file())
    out["cli.setup_s"] = statistics.median(p.cpu for p in setup)
    out["trace.overhead_s"] = med(lambda t: t[0]) - sum(p.wall for p in untraced)
    return out


def report(rec: dict) -> None:
    name = rec["workload"]
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"== {name}  seed={rec['seed']}  trace={rec['trace']}")
    for label, fp in rec["inputs"].items():
        print(f"input {label}: {json.dumps(fp)}")
    samples = rec["samples"]
    for k, m in rec["metrics"].items():
        extra = f"  ({describe(samples[k])})" if k in samples else ""
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}{extra}")
    for k, m in rec.get("wall", {}).items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        extra = f"  ({describe(samples[k])})" if k in samples else ""
        print(f"{name} {k} = {value} {m['unit']}  [wall clock, not gated]{extra}")
    if rec["trace"]:
        print(f"{name} tracing overhead: traced total minus untraced wall_s = "
              f"{rec['metrics']['trace.overhead_s']['value']:+.4f} s "
              f"(untraced pass {rec['untraced_pass_wall_s']:.4f} s)")
    print(f"{name} failed_frac = {failed / attempted:.4g} ({failed} of {attempted} commands)")
    for msg in rec["failures"]:
        print(f"{name} FAILED: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="modnull benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not (ROOT / "src" / "modnull" / "cli.py").is_file():
        print(f"no modnull sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = machine()
    print("machine: " + json.dumps(host))
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        rec = measure(name, args.seed, args.seconds, bool(args.trace), deadline, host)
        report(rec)
        records.append(rec)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
