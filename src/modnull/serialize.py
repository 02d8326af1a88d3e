"""Byte-stable JSON, CSV and edge-list emission.

All numeric output carries 17 significant digits, enough to round-trip
any 64-bit float, and the writers control every byte (key order is
insertion order, lines end with \\n), so identical results serialize to
identical files on every platform.  CSVs and edge lists are formatted
from numpy columns by :func:`format_rows`, one bytes ``%`` per block of
rows, so no table exists as Python rows.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .rng import budget_rows


def _atom(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value in output: {float(value)!r}")
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars; floats at 17 significant digits.

    A NamedTuple is written as an object of its fields, in field order.
    """
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    return _atom(obj)


def format_rows(line: bytes, columns, row_bytes: int):
    """Yield the rows of equal-length numpy ``columns`` as ASCII, a block of
    ``rng.budget_rows(row_bytes)`` rows per ``%`` of ``line`` repeated once
    per row.  The cells go in row order as Python ints (exact to 64 bits)
    and floats; columns of one dtype are interleaved by numpy."""
    step = budget_rows(row_bytes)
    dtype = None if len({c.dtype for c in columns}) == 1 else object
    for a in range(0, len(columns[0]), step):
        cells = np.stack([c[a:a + step] for c in columns], axis=1, dtype=dtype)
        yield line * len(cells) % tuple(cells.reshape(-1).tolist())


def write_csv(path, header: list[str], columns) -> None:
    """Write ``header`` and one line per row of equal-length numpy ``columns``.

    Floats take ``%.17g`` and integers ``%d``.  The first non-finite float
    in row order raises before the file is opened.  A cell takes 80 bytes
    of ``rng.BUDGET``: tracemalloc reads 67 for ``null-sample``'s and 77 for
    64-bit seeds' (an object slot, a Python number, list and tuple slots, text).
    """
    floats = [c for c in columns if c.dtype.kind == "f"]
    if not all(np.isfinite(c).all() for c in floats):
        bad = np.column_stack([~np.isfinite(c) for c in floats]).reshape(-1)
        i = int(bad.argmax())
        x = float(floats[i % len(floats)][i // len(floats)])
        raise ValueError(f"non-finite value in output: {x!r}")
    line = b",".join(b"%.17g" if c.dtype.kind == "f" else b"%d" for c in columns) + b"\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(format_rows(line, columns, 80 * len(columns)))
