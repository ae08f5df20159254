"""Canonical JSON with a fixed float width.

Equal structures must serialize to equal bytes: transcript replay and
arbiter-record comparisons are byte-level. The stdlib encoder uses the
shortest round-trip float repr, which is fine for parsing but leaves the
width unpinned, so floats are emitted here with 17 significant digits
(lossless for IEEE doubles). Dict insertion order is preserved.
"""
from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np


def _float_token(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in canonical document")
    if x == 0.0:
        x = 0.0  # collapse -0.0 so sign-flipped zero amplitudes don't leak into bytes
    return format(x, ".17g")


def _emit(obj, out: list[str]) -> None:
    """Append the canonical tokens of ``obj`` to ``out``.

    The exact built-in types the documents are made of dispatch on
    ``type(obj)``; anything else (numpy scalars, bool/int/str subclasses,
    tuples) takes ``_emit_other``. Both give the same bytes for a value.
    """
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is float:
        out.append(_float_token(obj))
    elif kind is dict:
        out.append("{")
        sep = ""
        for key, value in obj.items():
            if type(key) is not str and not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in canonical document")
            out.append(sep)
            out.append(_encode_str(key))
            out.append(":")
            leaf = type(value)  # floats and strings, most leaves, skip a call
            if leaf is float:
                out.append(_float_token(value))
            elif leaf is str:
                out.append(_encode_str(value))
            else:
                _emit(value, out)
            sep = ","
        out.append("}")
    elif kind is list:
        out.append("[")
        sep = ""
        for item in obj:
            out.append(sep)
            leaf = type(item)
            if leaf is float:
                out.append(_float_token(item))
            elif leaf is str:
                out.append(_encode_str(item))
            else:
                _emit(item, out)
            sep = ","
        out.append("]")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        _emit_other(obj, out)


def _emit_other(obj, out: list[str]) -> None:
    if isinstance(obj, (int, np.integer)):
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
        _emit(dict(obj), out)
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Serialize to a compact, byte-stable JSON string."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("ascii")


def sha256_hex(obj) -> str:
    """Digest of the canonical serialization."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()
