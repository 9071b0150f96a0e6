"""Deterministic JSON emission for reports and state files.

Floats are written with 17 significant digits (enough to round-trip an IEEE
double exactly), keys are sorted, and there is no locale or dict-order
dependence, so identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["format_float", "dumps"]


def format_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    s = format(float(x), ".17g")
    # keep floats recognizable as floats in the output
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def dumps(obj: Any) -> str:
    """Serialize dicts/lists/scalars to a canonical single-line JSON string."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, str)):
        parts.append(json.dumps(obj))
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
