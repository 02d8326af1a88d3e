"""The CSV writer against the row-by-row reference, across block boundaries.

Every golden CSV fits in one block of rows, so these cases shrink
``rng.BUDGET`` until a few rows make a block.
"""

import numpy as np
import pytest

from conftest import csv_text

from modnull import rng
from modnull.serialize import write_csv

HEADER = ["replicate", "q", "z"]


def columns_of(count):
    gen = np.random.default_rng(count)
    q = gen.normal(size=count) * 10.0 ** gen.integers(-300, 300, size=count)
    z = gen.normal(size=count)
    z[: min(count, 3)] = [-0.0, 5e-324, 1.0][: min(count, 3)]
    return [np.arange(count), q, z]


@pytest.mark.parametrize("rows_per_block", [1, 7])
@pytest.mark.parametrize("count", [0, 1, 7, 23])
def test_write_csv_matches_the_row_writer_across_blocks(tmp_path, monkeypatch, count,
                                                         rows_per_block):
    # A block of rows is budgeted at 64 bytes per cell.
    monkeypatch.setattr(rng, "BUDGET", rows_per_block * 64 * len(HEADER))
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
