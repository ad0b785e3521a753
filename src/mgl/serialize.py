"""Helpers for deterministic JSON report emission."""

from __future__ import annotations

import json

import numpy as np


def jsonable(value):
    """Recursively convert report values into JSON-serializable structures.

    Complex numbers become [re, im] pairs; numpy arrays become nested lists;
    +inf becomes the string "inf" so reports stay valid strict JSON.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    return value


def dump_report(report: dict) -> str:
    """Canonical byte-stable JSON encoding of a report dict.

    Raises ValueError if the report holds a NaN, which strict JSON cannot
    encode.
    """
    text = json.dumps(jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    return text + "\n"
