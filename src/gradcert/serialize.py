"""Deterministic text rendering for files this package writes.

Floats go through repr-faithful '%.17g' formatting so re-running a command
on the same inputs produces byte-identical output. The JSON renderer exists
because json.dump's float formatting is repr-based but its spacing and
ordering knobs are awkward to pin down across versions; rendering by hand
keeps the byte stream under our control.

Float arrays are formatted a column at a time: ``fmt_floats`` formats a
whole array with one ``map`` over its ``tolist()``, and callers patch the
non-finite entries through a mask. The text is the same as formatting
each element with ``fmt_float``; only the number of Python calls differs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Lists of up to this many short, single-line items render on one line.
# A .17g cell is at most 24 characters ("-2.2250738585072014e-308"), so
# every float row of up to this length qualifies.
_INLINE_MAX = 8

# Arrays whose tolist() yields Python floats that fmt_float would format
# unchanged.
_FLOAT_DTYPES = (np.float64, np.float32)


def fmt_float(x) -> str:
    """17-significant-digit decimal form; always round-trips float64 exactly.

    Non-finite values come out as nan, inf and -inf.
    """
    return format(float(x), ".17g")


def fmt_floats(values: np.ndarray) -> list[str]:
    """fmt_float of every element of a 1-D float array, in one pass."""
    return list(map(format, values.tolist(), itertools.repeat(".17g")))


def _layout(rendered: list[str], pad: str, inner: str) -> str:
    if not rendered:
        return "[]"
    if len(rendered) <= _INLINE_MAX and all(len(r) < 26 and "\n" not in r for r in rendered):
        return "[" + ", ".join(rendered) + "]"
    return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"


def render_json(value, indent: int = 0) -> str:
    """Render a JSON document with stable float formatting.

    Dicts keep insertion order. numpy scalars and arrays are accepted and
    written as numbers and nested lists.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}"{key}": {render_json(val, indent + 1)}' for key, val in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, np.ndarray) and value.dtype in _FLOAT_DTYPES and value.ndim:
        if value.ndim > 1:
            return _layout([render_json(row, indent + 1) for row in value], pad, inner)
        cells = fmt_floats(value)
        # JSON has no nan/inf literals.
        for i in np.flatnonzero(~np.isfinite(value)).tolist():
            cells[i] = "null"
        return _layout(cells, pad, inner)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return _layout([render_json(v, indent + 1) for v in value], pad, inner)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no nan/inf literals.
        return fmt_float(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def write_json(path, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(value) + "\n")
