"""The canonical-JSON emitter as it was before its exact-type fast path.

Kept as an independent oracle: ``jsonutil.canonical_json`` must produce
exactly these bytes for every document.
"""
import json
import math

import numpy as np


def _float_token(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in canonical document")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_token(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in canonical document")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list = []
    _emit(obj, out)
    return "".join(out)
