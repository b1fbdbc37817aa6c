"""Deterministic JSON and CSV emission.

Outputs must be byte-identical across reruns of the same configuration and
seed, so nothing here writes timestamps, hostnames or float formats that
depend on locale; floats go through repr, which round-trips.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = ["to_jsonable", "dump_json", "dump_csv"]


def to_jsonable(obj):
    """Recursively convert dataclasses, enums and arrays to JSON-safe values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def dump_json(path, obj) -> None:
    payload = json.dumps(to_jsonable(obj), sort_keys=True, indent=2)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def _fmt(v) -> str:
    # numpy scalars print as np.float64(...) under repr, so every float goes
    # through the builtin one
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def dump_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
