"""Canonical JSON with a fixed float width.

Equal structures must serialize to equal bytes: transcript replay and
arbiter-record comparisons are byte-level. The stdlib encoder uses the
shortest round-trip float repr, which is fine for parsing but leaves the
width unpinned, so floats are emitted here with 17 significant digits
(lossless for IEEE doubles). Dict insertion order is preserved.

The documents are mostly long runs of same-shaped rows (state snapshots,
carrier metadata, probability rows). The row renderers below format a
whole run of rows at once, from one array, where the rows are made. What
they return is text only: a ``Rendered`` holds the canonical text and no
copy of the value, and ``_emit`` appends that text verbatim.

The emitter takes exactly the built-in types the documents are made of
(dict with str keys, list, str, float, int, bool, None) plus ``Rendered``;
anything else, a tuple, a numpy scalar or a subclass of a built-in type,
is a ``TypeError``. The reference for the bytes, renderers included, is
the independent emitter in ``tests/canonical_oracle.py``.
"""
from __future__ import annotations

import functools
import math
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

_NON_FINITE = "non-finite float in canonical document"


class Rendered:
    """A document, or a run of rows, held only as its canonical text.

    ``canonical_json`` embeds ``text`` verbatim. It is not a ``str``, so
    ``json.dumps`` rejects it instead of quoting the text as a string.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _float_token(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(_NON_FINITE)
    if x == 0.0:
        x = 0.0  # collapse -0.0 so sign-flipped zero amplitudes don't leak into bytes
    return format(x, ".17g")


def _emit(obj, out: list[str]) -> None:
    """Append the canonical tokens of ``obj`` to ``out``, dispatching on
    ``type(obj)``: only the exact built-in types are accepted."""
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is float:
        out.append(_float_token(obj))
    elif kind is dict:
        out.append("{")
        sep = ""
        for key, value in obj.items():
            if type(key) is not str:
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
    elif kind is Rendered:
        out.append(obj.text)
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")


# --- row renderers ----------------------------------------------------------


def _float_stack(values) -> np.ndarray:
    """A float64 copy of ``values`` with -0.0 collapsed to 0.0, checked
    finite once for the whole stack."""
    stack = np.asarray(values, dtype=np.float64) + 0.0
    if not np.isfinite(stack).all():
        raise ValueError(_NON_FINITE)
    return stack


@functools.cache
def _floats_template(width: int) -> str:
    return "[" + ",".join(["%.17g"] * width) + "]"


@functools.cache
def _state_template(width: int) -> str:
    return '{"labels":%s,"amps":[' + ",".join(["[%.17g,%.17g]"] * width) + "]}"


def state_texts(labels, amps) -> list[str]:
    """Canonical text of ``{"labels": [...], "amps": [[re, im], ...]}`` for
    each row of an (m, 2**k) complex stack; ``labels[r]`` names row r's qubits,
    as strings."""
    # the (m, 2w) float view of the (m, w) stack: (re, im) per amplitude
    stack = _float_stack(np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64))
    template = _state_template(stack.shape[1] // 2)
    return [template % ("[" + ",".join(map(_encode_str, row)) + "]", *values)
            for row, values in zip(labels, stack.tolist(), strict=True)]


def render_float_rows(rows) -> Rendered:
    """Rendered ``[[x, ...], ...]`` of equal-length rows of floats."""
    if not len(rows):
        return Rendered("[]")
    stack = _float_stack(rows)
    template = _floats_template(stack.shape[1])
    text = "[" + ",".join([template % tuple(row) for row in stack.tolist()]) + "]"
    return Rendered(text)


def carrier_rows_text(rows, states=None) -> str:
    """Canonical text of the list of ``{"id", "band", "slot"}`` objects made
    from ``rows`` of (id, band, slot): string ids and bands, integer slots.
    With ``states`` (canonical texts, one per row), each object also ends in
    a ``"state"`` member holding that text."""
    if states is None:
        items = ['{"id":%s,"band":%s,"slot":%d}' % (_encode_str(i), _encode_str(b), slot)
                 for i, b, slot in rows]
    else:
        items = ['{"id":%s,"band":%s,"slot":%d,"state":%s}'
                 % (_encode_str(i), _encode_str(b), slot, state)
                 for (i, b, slot), state in zip(rows, states, strict=True)]
    return "[" + ",".join(items) + "]"


def render_carriers(rows) -> Rendered:
    """Rendered ``[{"id", "band", "slot"}, ...]`` from rows of (id, band, slot)."""
    return Rendered(carrier_rows_text(rows))


def canonical_json(obj) -> str:
    """Serialize to a compact, byte-stable JSON string."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("ascii")
