"""Pinned sha256 digests of small CLI artifacts.

The README promises byte-identical artifacts for identical seeds, and a
refactor of the sampling or reporting code must keep them so.  These
runs cover every command that writes an artifact, on inputs small enough
to run in about a second.  A digest that changes means a byte moved: if
that is a deliberate change to the output contract, re-pin the digest
and record why.  The ``er`` and ``hub`` edge lists, and the artifacts
built on them (``conditions.json``, ``slln.*`` and stdout), are pinned
under seed-contract v2, the geometric skip over vertex pairs.
"""

import hashlib
from pathlib import Path

from modnull.cli import main

PARTITION = "".join(f"{1 + (7 * v) % 3}\n" for v in range(60))
PROBS = "0.2\n0.3\n0.5\n"

RUNS = [
    ["generate", "--model", "reg:d=4", "--n", "60", "--seed", "1", "--out", "reg.txt"],
    ["generate", "--model", "er:p=0.1", "--n", "50", "--seed", "2", "--out", "er.txt"],
    ["compute", "--graph", "reg.txt", "--partition", "part.txt", "--out", "compute.json"],
    ["test", "--graph", "reg.txt", "--partition", "part.txt", "--probs", "probs.txt",
     "--out", "test.json"],
    ["conditions", "--graph", "er.txt", "--out", "conditions.json"],
    ["null-sample", "--graph", "reg.txt", "--probs", "probs.txt", "--reps", "1100",
     "--seed", "3", "--threads", "1", "--out", "null1.csv"],
    ["null-sample", "--graph", "reg.txt", "--probs", "probs.txt", "--reps", "1100",
     "--seed", "3", "--threads", "2", "--out", "null2.csv"],
    ["be-study", "--model", "reg:d=4", "--sizes", "40,80", "--reps", "300", "--seed", "5",
     "--threads", "2", "--out", "be.csv"],
    ["slln-study", "--model", "er:p=0.2", "--sizes", "20,40", "--reps", "1030", "--seed", "6",
     "--probs", "probs.txt", "--out", "slln.csv"],
]

GOLDEN = {
    "be.csv": "30d6115df6dce502704a5cee7c38058c4b408ad0bfe1167ccedcfcb7c8fa1a91",
    "be.summary.json": "cb5d9e6f70abf82f0fba36c4eaab3add76330cba39b630957673c9bee8dc9784",
    "compute.json": "fc9362be58bebd86e1a7287ee6b1c04db9e513ad77c6c55b716608681a6fc511",
    "conditions.json": "69942ea07d0e583a621511e3d6e1398388d54c26addd8198d5e1de93222adcc2",
    "er.txt": "8700fdc9643b682e2205b0d34fa99681ceec265dc45ed3c3d7daa6feaa22998f",
    "null1.csv": "5e96572c9e6cfb1f84ca4d27c4d485d97b3bd6b0b036f1f570f08d682d474064",
    "null1.summary.json": "d3d276d9a5ae38b5622406071052b10c21c5fae920b07de4109888decb7de1e8",
    "null2.csv": "5e96572c9e6cfb1f84ca4d27c4d485d97b3bd6b0b036f1f570f08d682d474064",
    "null2.summary.json": "d3d276d9a5ae38b5622406071052b10c21c5fae920b07de4109888decb7de1e8",
    "reg.txt": "a417c93cd9009173a0fbb68ecf206e01e1c97f9ddf85ed80e7e801436a0d5186",
    "slln.csv": "cc8d4211b8cd0f80eb59f780a5a39b41f56408e42e418df751eb76fc05c93057",
    "slln.summary.json": "b14ca727b2bf72657c4da7d3ac2227a33bdcf1395aeb228f90a324ee3b99e251",
    "test.json": "e64c68c7ad17cabe3a05223a84708306049f95e604d294e7b045360a359f50eb",
    "stdout": "440542d992aa954a63bb2ef5acda4231847b31dea23f09e3a3e3425b6d482e40",
}


def artifact_digests(workdir: Path, capsys) -> dict[str, str]:
    """Run every command in ``workdir`` (paths are echoed, so they are
    relative) and return the sha256 of each file written, and of stdout."""
    (workdir / "part.txt").write_text(PARTITION)
    (workdir / "probs.txt").write_text(PROBS)
    inputs = {p.name for p in workdir.iterdir()}
    stdout = []
    for argv in RUNS:
        assert main(argv) == 0, argv
        stdout.append(capsys.readouterr().out)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
        if p.name not in inputs
    }
    digests["stdout"] = hashlib.sha256("".join(stdout).encode()).hexdigest()
    return digests


# Generator edge lists the runs above do not reach: the hub spokes, and a
# dense regular graph whose pairing passes leave 6 stubs to the edge-switch
# repair.
GENERATOR_RUNS = {
    "hub.txt": ["generate", "--model", "hub:p=0.1", "--n", "60", "--seed", "3"],
    "repair.txt": ["generate", "--model", "reg:d=17", "--n", "20", "--seed", "1"],
}

GENERATOR_GOLDEN = {
    "hub.txt": "b768213a50d7fd2584998ee2419903a2389b3d163bb923657d7c2679d35e925f",
    "repair.txt": "6972cfa2209b1b51995f160125902d435bb223ab56d731bbc03d959ae3664992",
}


def test_cli_artifacts_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = artifact_digests(tmp_path, capsys)
    assert digests["null1.csv"] == digests["null2.csv"]
    assert digests == GOLDEN


def test_generated_edge_lists_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, argv in GENERATOR_RUNS.items():
        assert main([*argv, "--out", name]) == 0, argv
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    capsys.readouterr()
    assert digests == GENERATOR_GOLDEN
