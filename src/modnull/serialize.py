"""Byte-stable JSON and CSV emission.

All numeric output carries 17 significant digits, enough to round-trip
any 64-bit float, and the writers control every byte (key order is
insertion order, lines end with \\n), so identical results serialize to
identical files on every platform.
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in output: {x!r}")
    return format(float(x), ".17g")


def _atom(value) -> str:
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
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


def csv_text(header: list[str], rows: list[list]) -> str:
    """Header plus one comma-joined line per row, \\n terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    return value if isinstance(value, str) else _atom(value)
