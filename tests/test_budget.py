"""One byte budget: every blocked loop sizes its blocks by ``rng.budget_rows``
when it runs, and no block boundary moves a byte of any artifact.

The pipeline below runs the README commands in-process twice, at the
default 2 MiB budget and at 4 KiB, where every input spans many blocks:
128-byte parse blocks, 32-edge write blocks, 128-wedge 4-cycle blocks,
one lane group per sampling chunk, one row per sorted-key martingale
block, 256 lower ends per gather and 16 vertices per count block of the
two-color martingale, one to five lanes per degree-mass block, 256-edge blocks of the degree-product
sum, 36 colorings per enumeration chunk, 32 values per KS block and 5 to
17 rows per CSV block.  One ``reg`` graph takes the stub-switch repair.
Colors come from the states' top bits (``--K 2`` and ``--K 4``) and from
the guide table, and two-color degree masses from degree planes that
hold every vertex (``reg``) and from many that miss some (``hub``).
The martingale kernel has no command of its own, so its samples on the
hub graph, with three colors and with two, are two more artifacts.  Two
runs that fail on purpose report lines deep in their files, which the
parser finds only by counting the line breaks of every block before them.
"""

import ast
import hashlib
from pathlib import Path

import modnull
from modnull import ColorDistribution, martingale_variance_samples, parse_edge_list, rng
from modnull.cli import main

PARTITION = "".join(f"{1 + (5 * v) % 3}\n" for v in range(200))
PROBS = "0.2\n0.3\n0.5\n"
# 3**7 colorings, whose weighted Q sums round differently when each chunk
# is rounded on its own.
SMALL = "# n=7\n0 1\n0 4\n0 5\n1 3\n2 4\n3 5\n4 5\n"

GENERATE = [
    ["generate", "--model", "reg:d=6", "--n", "300", "--seed", "1", "--out", "reg.txt"],
    # Seed 4 leaves stubs to the switch repair (see tests/test_generators.py).
    ["generate", "--model", "reg:d=6", "--n", "300", "--seed", "4", "--out", "regrepair.txt"],
    ["generate", "--model", "hub:p=0.05", "--n", "200", "--seed", "2", "--out", "hub.txt"],
    ["generate", "--model", "er:p=0.05", "--n", "300", "--seed", "3", "--out", "er.txt"],
]
COMMANDS = [
    ["compute", "--graph", "hub.txt", "--partition", "part.txt", "--out", "compute.json"],
    ["test", "--graph", "hub.txt", "--partition", "part.txt", "--sided", "two",
     "--out", "test.json"],
    ["conditions", "--graph", "er.txt", "--out", "conditions.json"],
    ["null-sample", "--graph", "reg.txt", "--K", "300", "--reps", "150", "--seed", "3",
     "--threads", "2", "--out", "null300.csv"],
    ["null-sample", "--graph", "hub.txt", "--partition", "part.txt", "--probs", "probs.txt",
     "--reps", "150", "--seed", "4", "--threads", "1", "--out", "null.csv"],
    ["be-study", "--model", "reg:d=4", "--sizes", "40,80", "--reps", "200", "--seed", "5",
     "--threads", "2", "--out", "be.csv"],
    # Colors as the states' top two bits; K=2 degree masses from many
    # degree planes, each missing some vertices.
    ["null-sample", "--graph", "er.txt", "--K", "4", "--reps", "150", "--seed", "8",
     "--threads", "2", "--out", "null4.csv"],
    ["be-study", "--model", "hub:p=0.05", "--sizes", "150,300", "--reps", "200", "--seed", "9",
     "--threads", "2", "--out", "behub.csv"],
    ["slln-study", "--model", "er:p=0.2", "--sizes", "20,40", "--reps", "60", "--seed", "6",
     "--probs", "probs.txt", "--out", "slln.csv"],
    ["enumerate-check", "--graph", "small.txt", "--probs", "probs.txt", "--out", "enum.json"],
    # Refused with the line of the fault: the last line of each file.
    ["compute", "--graph", "loop.txt", "--partition", "part.txt"],
    ["compute", "--graph", "hub.txt", "--partition", "badpart.txt"],
]


def pipeline_digests(workdir: Path, capsys) -> tuple[dict[str, str], list[str]]:
    """Run the pipeline in ``workdir``.  Returns the sha256 of every file in
    it, of the runs' exit codes and output and of the martingale samples,
    and each run's exit code and output."""
    (workdir / "part.txt").write_text(PARTITION)
    (workdir / "badpart.txt").write_text(PARTITION + "x\n")
    (workdir / "probs.txt").write_text(PROBS)
    (workdir / "small.txt").write_text(SMALL)

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return f"{code}\n{captured.out}{captured.err}"

    streams = [run(argv) for argv in GENERATE]
    (workdir / "loop.txt").write_text((workdir / "reg.txt").read_text() + "7 7\n")
    streams += [run(argv) for argv in COMMANDS]
    hub = parse_edge_list((workdir / "hub.txt").read_bytes())
    v2 = martingale_variance_samples(hub, ColorDistribution([0.2, 0.3, 0.5]), 100, 7, threads=2)
    v2_two = martingale_variance_samples(hub, ColorDistribution([0.3, 0.7]), 100, 7, threads=2)
    digests = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    digests.update(streams="\n".join(streams).encode(), martingale=v2.tobytes(),
                   martingale_two=v2_two.tobytes())
    return {name: hashlib.sha256(data).hexdigest() for name, data in digests.items()}, streams


def test_pipeline_artifacts_do_not_depend_on_the_budget(tmp_path, monkeypatch, capsys):
    runs = []
    for budget in (rng.BUDGET, 4096):
        monkeypatch.setattr(rng, "BUDGET", budget)
        workdir = tmp_path / str(budget)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        runs.append(pipeline_digests(workdir, capsys))
    (digests, streams), (small_digests, _) = runs
    assert [s[0] for s in streams] == ["0"] * (len(GENERATE) + len(COMMANDS) - 2) + ["2", "2"]
    assert "line 902: self-loop at vertex 7" in streams[-2]
    assert "badpart.txt line 201: colors must be integers" in streams[-1]
    assert small_digests == digests
    # compute and test sum k_u k_v over several blocks of the hub's edges.
    assert parse_edge_list((tmp_path / "4096" / "hub.txt").read_bytes()).m > 3 * 4096 // 16


SRC = Path(modnull.__file__).parent


def import_time_reads(tree: ast.Module) -> set[str]:
    """Names and attributes a module reads when it is imported: everything
    outside function bodies, defaults and decorators included."""
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += [*node.args.defaults, *filter(None, node.args.kw_defaults),
                      *getattr(node, "decorator_list", [])]
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        stack += ast.iter_child_nodes(node)
    return reads


def budget_faults(source: str, is_rng: bool) -> list[str]:
    """Why a module's source breaks the one-budget rule, if it does."""
    tree = ast.parse(source)
    faults = []
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              for a in n.names}
    if not is_rng and "BUDGET" in names:
        faults.append("names BUDGET outside rng.py")
    copied = {"BUDGET", "budget_rows"} & import_time_reads(tree)
    if copied:
        faults.append(f"reads {sorted(copied)} at import")
    return faults


def test_only_rng_names_the_budget_and_no_block_is_fixed_at_import():
    modules = sorted(SRC.glob("*.py"))
    assert {"rng.py", "graph.py", "moments.py", "simulation.py"} <= {p.name for p in modules}
    for path in modules:
        assert budget_faults(path.read_text(), path.name == "rng.py") == [], path.name
    # The guard catches an import-time copy of the budget, however it is made.
    assert budget_faults("from .rng import BUDGET\n_BLOCK = BUDGET // 32\n", False) == [
        "names BUDGET outside rng.py", "reads ['BUDGET'] at import"]
    assert budget_faults("from . import rng\n_BLOCK = rng.budget_rows(32)\n", False) == [
        "reads ['budget_rows'] at import"]
    assert budget_faults("def f(step=budget_rows(8)):\n    return step\n", False) == [
        "reads ['budget_rows'] at import"]
    assert budget_faults("BUDGET = 1 << 21\n_ROWS = BUDGET // 8\n", True) == [
        "reads ['BUDGET'] at import"]
    assert budget_faults("def f():\n    return budget_rows(8) + rng.BUDGET\n", False) == [
        "names BUDGET outside rng.py"]
