"""Deterministic JSON and CSV emission, and the typed reading of JSON configs.

Outputs must be byte-identical across reruns of the same configuration and
seed, so nothing here writes timestamps, hostnames or float formats that
depend on locale; floats go through repr, which round-trips.  The way back,
`parse_value`, reads JSON as the types dataclass fields declare.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import MISSING
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = ["to_jsonable", "dump_json", "dump_csv", "typed", "config_keys", "parse_value",
           "parse_fields"]


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
        # a kind tag (the class attribute of a tree node) leads the fields
        out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
        return out | {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def typed(val, types) -> bool:
    """isinstance(val, types), but no bool: no config value is one."""
    return isinstance(val, types) and not isinstance(val, bool)


_WANT = {int: "an integer", float: "a number", str: "a string"}


def parse_value(hint, val, pointer, errors, ctx=None):
    """val read as a value of type hint, or None after an error at pointer.

    hint is int, float (an int or a float, never NaN), str, Optional[X], a
    Literal (one of its values), a tuple type (a list, read item by item at
    pointer/i), dict (any object), a dataclass (see parse_fields) or a base
    class whose subclasses carry ``kind`` tags, read as the subclass of the
    object's "kind".  ctx goes to parse_fields."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Literal:
        if val in args:
            return val
        errors.append(f"{pointer}: expected one of {sorted(args)}, got {val!r}")
        return None
    if type(None) in args:
        return None if val is None else parse_value(args[0], val, pointer, errors, ctx)
    if typing.get_origin(hint) is tuple:
        if not isinstance(val, (list, tuple)):
            errors.append(f"{pointer}: expected a list, got {val!r}")
            return None
        hints = args[:1] * len(val) if args[-1] is Ellipsis else args
        if len(hints) != len(val):
            errors.append(f"{pointer}: expected {len(hints)} items, got {len(val)}")
            return None
        n_errors = len(errors)
        out = tuple(parse_value(h, v, f"{pointer}/{i}", errors, ctx)
                    for i, (h, v) in enumerate(zip(hints, val)))
        return None if len(errors) > n_errors else out
    if hint in _WANT:
        if typed(val, (int, float) if hint is float else hint) and val == val:
            return hint(val)
        errors.append(f"{pointer}: expected {_WANT[hint]}, got {val!r}")
        return None
    if dataclasses.is_dataclass(hint):
        return parse_fields(hint, val, pointer, errors, ctx)
    if not isinstance(val, dict):
        errors.append(f"{pointer}: expected an object, got {val!r}")
        return None
    if hint is dict:
        return val
    kinds = {cls.kind: cls for cls in hint.__subclasses__() if hasattr(cls, "kind")}
    kind = val.get("kind")
    if not (isinstance(kind, str) and kind in kinds):
        errors.append(f"{pointer}/kind: expected one of {sorted(kinds)}, got {kind!r}")
        return None
    return parse_fields(kinds[kind], val, pointer, errors, ctx)


# the field types and keys of a class are worked out once: every run reads
# a config
_type_hints = functools.cache(typing.get_type_hints)


@functools.cache
def config_keys(cls) -> tuple:
    """The JSON keys of the dataclass cls: its CONFIG_KEYS, or else its fields."""
    return getattr(cls, "CONFIG_KEYS", None) or tuple(
        f.name for f in dataclasses.fields(cls) if f.init)


def parse_fields(cls, obj, pointer, errors, ctx=None):
    """cls from the JSON object at pointer (None reads as {}), whose keys are
    config_keys(cls) and a kind tag, each read as its field's type; None
    after an error.  With ctx, fields are read in cls.child_context(ctx) and
    the value must pass check_context(ctx), where cls defines them.  A value
    cls rejects is an error at the key its message names first, given or left
    to its default."""
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        errors.append(f"{pointer}: expected an object, got {type(obj).__name__}")
        return None
    hints = _type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    keys = config_keys(cls)
    inner = cls.child_context(ctx) if ctx is not None and hasattr(cls, "child_context") else ctx
    n_errors = len(errors)
    given = {}
    for key, val in obj.items():
        if key in keys:
            given[key] = parse_value(hints[key], val, f"{pointer}/{key}", errors, inner)
        elif key != "kind" or not hasattr(cls, "kind"):
            errors.append(f"{pointer}/{key}: unknown key, expected one of {keys}")
    for f in fields:
        if f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            errors.append(f"{pointer}/{f.name}: missing required field")
    if len(errors) > n_errors:
        return None
    try:
        out = cls(**given)
        if ctx is not None and hasattr(out, "check_context"):
            out.check_context(ctx)
        return out
    except (TypeError, ValueError) as exc:
        key = str(exc).partition(" ")[0]
        errors.append(f"{pointer}/{key}: {exc}" if key in keys else f"{pointer}: {exc}")
        return None


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
