"""Deterministic text rendering for files this package writes.

Floats go through repr-faithful '%.17g' formatting so re-running a command
on the same inputs produces byte-identical output. The JSON renderer exists
because json.dump's float formatting is repr-based but its spacing and
ordering knobs are awkward to pin down across versions; rendering by hand
keeps the byte stream under our control.
"""

from __future__ import annotations

import math

import numpy as np


def fmt_float(x) -> str:
    """17-significant-digit decimal form; always round-trips float64 exactly.

    Non-finite values come out as nan, inf and -inf.
    """
    return format(float(x), ".17g")


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
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in value]
        if all(len(r) < 26 and "\n" not in r for r in rendered) and len(rendered) <= 8:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
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
