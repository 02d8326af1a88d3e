"""The CSV writer against the row-by-row reference, across block boundaries.

Every golden CSV fits in one block of rows, so these cases shrink
``rng.BUDGET`` until a few rows make a block.  No module writes a file
in text mode, where ``\\n`` would become the platform's line separator.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_text

import modnull
from modnull import rng
from modnull.serialize import write_csv

HEADER = ["replicate", "q", "z"]


# Where %.17g switches between fixed and exponent form, the largest
# integer doubles, the largest finite double and a tiny negative one.
EDGE_FLOATS = [1e-4, 1e-5, 1e16, 1e17, 9.999999999999999e16, 2.0 ** 53 + 2,
               np.finfo(np.float64).max, -1e-300]


def columns_of(count):
    gen = np.random.default_rng(count)
    replicate = np.arange(count)
    replicate[:2] = [-2 ** 63, 2 ** 63 - 1][:count]
    q = gen.normal(size=count) * 10.0 ** gen.integers(-300, 300, size=count)
    q[: len(EDGE_FLOATS)] = EDGE_FLOATS[:count]
    z = gen.normal(size=count)
    z[: min(count, 3)] = [-0.0, 5e-324, 1.0][: min(count, 3)]
    return [replicate, q, z]


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
@pytest.mark.parametrize("count", [0, 1, 7, 23])
def test_write_csv_matches_the_row_writer_across_blocks(tmp_path, monkeypatch, count,
                                                         rows_per_block):
    # A block of rows is budgeted at 80 bytes per cell; None keeps the
    # 2 MiB budget, which holds every row in one block.
    if rows_per_block:
        monkeypatch.setattr(rng, "BUDGET", rows_per_block * 80 * len(HEADER))
    columns = columns_of(count)
    path = tmp_path / "out.csv"
    write_csv(path, HEADER, columns)
    rows = list(zip(*(c.tolist() for c in columns)))
    assert path.read_text() == csv_text(HEADER, rows)


def test_write_csv_keeps_64_bit_integers_exact(tmp_path):
    seeds = np.array([0, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1], dtype=np.uint64)
    path = tmp_path / "seeds.csv"
    write_csv(path, ["seed_used", "ks"], [seeds, np.full(seeds.size, 0.5)])
    assert path.read_text() == (
        "seed_used,ks\n0,0.5\n9223372036854775807,0.5\n9223372036854775808,0.5\n"
        "9223372036854775809,0.5\n18446744073709551615,0.5\n"
    )


@pytest.mark.parametrize(
    "q,z,shown",
    [
        ([0.5, np.nan], [1.0, 2.0], "nan"),
        ([0.5, 1.0], [np.inf, 2.0], "inf"),
        ([0.5, -np.inf], [1.0, np.nan], "-inf"),
        ([0.5, np.nan], [np.inf, 2.0], "inf"),
    ],
    ids=["nan", "inf", "first-in-row", "row-order"],
)
def test_write_csv_refuses_non_finite_values_before_opening(tmp_path, q, z, shown):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"^non-finite value in output: {shown}$"):
        write_csv(path, HEADER, [np.arange(2), np.array(q), np.array(z)])
    assert not path.exists()


def text_mode_writes(source: str) -> list[str]:
    """The ``write_text`` calls in a module's source, and its ``open`` calls
    whose mode writes text or cannot be read off the call."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "write_text":
            faults.append(f"line {node.lineno}: write_text")
        elif name == "open":
            # open(file, mode) and Path.open(mode)
            at = 1 if isinstance(node.func, ast.Name) else 0
            given = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            mode = getattr(given[0], "value", None) if given else "r"
            if not isinstance(mode, str) or ("b" not in mode and set(mode) & set("wax+")):
                faults.append(f"line {node.lineno}: open mode {mode!r}")
    return faults


def test_no_module_writes_a_file_in_text_mode():
    modules = sorted(Path(modnull.__file__).parent.glob("*.py"))
    assert {"cli.py", "serialize.py"} <= {p.name for p in modules}
    for path in modules:
        assert text_mode_writes(path.read_text()) == [], path.name
    # The guard catches every way of writing text that it knows.
    assert text_mode_writes(
        "Path(p).write_text(s)\nopen(p, 'w')\nopen(p, mode='a')\nPath(p).open('r+')\n"
        "open(p, m)\nopen(p)\nopen(p, 'rb')\nopen(p, 'wb')\nPath(p).open()\n") == [
        "line 1: write_text", "line 2: open mode 'w'", "line 3: open mode 'a'",
        "line 4: open mode 'r+'", "line 5: open mode None"]
