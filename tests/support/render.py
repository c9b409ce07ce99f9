"""The report renderer the CLI used before tables were held as columns: a
generic recursive walk over dicts, lists and scalars, one dict per table
row. render_report must give the same bytes once each table is expanded
back to row dicts."""
from __future__ import annotations

import json
import math


def _render(value, level: int = 0) -> str:
    pad, inner = "  " * level, "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _render(v, level + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_render(value[k], level + 1)}"
            for k in sorted(value, key=str)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value)!r}")


def render_report(doc: dict) -> str:
    return _render(doc) + "\n"
