"""Deterministic text for the files this package writes.

JSON documents are ``json.dumps`` output with a two-space indent: keys
keep their insertion order and floats are written as their shortest
round-tripping repr, so the same document always renders to the same
bytes. Before encoding, numpy arrays become lists and numpy scalars
Python values; non-finite floats, which JSON cannot hold, become null.

The trace CSV formats its floats with ``fmt_float`` ('%.17g'), a column
at a time: ``fmt_floats`` formats a whole array with one ``map`` over its
``tolist()``, and callers patch the non-finite entries through a mask.
The text is the same as formatting each element with ``fmt_float``; only
the number of Python calls differs.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


def fmt_float(x) -> str:
    """17-significant-digit decimal form; always round-trips float64 exactly.

    Non-finite values come out as nan, inf and -inf.
    """
    return format(float(x), ".17g")


def fmt_floats(values: np.ndarray) -> list[str]:
    """fmt_float of every element of a 1-D float array, in one pass."""
    return list(map(format, values.tolist(), itertools.repeat(".17g")))


def _plain(value):
    """value with numpy types as Python ones and non-finite floats as None."""
    if isinstance(value, dict):
        return {key: _plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            # One numpy step per array, not one call per element.
            value = np.where(np.isfinite(value), value, None)
        return value.tolist()
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_json(value) -> str:
    """value as a JSON document (module docstring); dicts keep insertion order."""
    return json.dumps(_plain(value), indent=2, allow_nan=False)


def write_json(path, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(value) + "\n")
