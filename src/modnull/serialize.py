"""Byte-stable JSON and CSV emission.

All numeric output carries 17 significant digits, enough to round-trip
any 64-bit float, and the writers control every byte (key order is
insertion order, lines end with \\n), so identical results serialize to
identical files on every platform.  CSVs are written from numpy
columns in blocks of rows, each formatted from ``tolist`` slices by one
line format, so no table exists as Python rows or as one string.
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
    """Serialize dicts/lists/scalars; floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    return _atom(obj)


def write_csv(path, header: list[str], columns) -> None:
    """Write ``header`` and one line per row of equal-length numpy ``columns``.

    Floats take ``%.17g`` and integers ``%d``.  The first non-finite float
    in row order raises before the file is opened.  A block of rows takes
    ~64 bytes per cell (a Python number, a list slot, text) of ``rng.BUDGET``.
    """
    floats = [c for c in columns if c.dtype.kind == "f"]
    if floats:
        bad = np.column_stack([~np.isfinite(c) for c in floats]).reshape(-1)
        if bad.any():
            i = int(bad.argmax())
            x = float(floats[i % len(floats)][i // len(floats)])
            raise ValueError(f"non-finite value in output: {x!r}")
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    step = budget_rows(64 * len(columns))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), step):
            block = zip(*(c[a:a + step].tolist() for c in columns))
            fh.write("".join(line % row for row in block))
