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
copy of the value, and ``_emit`` appends that text verbatim. A trial renders
the same floats and state rows many times over (a Pauli mask only permutes
and negates floats, and the returned digest re-reads the rows the received
digest read), so the renderers take a ``RenderMemo`` that holds each text
rendered so far; one memo lives as long as one trial's registry.

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


class RenderMemo:
    """The texts rendered so far in one trial, so that each is rendered once.

    ``floats`` maps a float's exact value to its token and ``states`` maps a
    state row's (labels, float bytes) to its text. It belongs to one
    ``QuantumRegistry``, so it lives exactly as long as one trial.
    """

    __slots__ = ("floats", "states")

    def __init__(self):
        self.floats: dict[float, str] = {}
        self.states: dict[tuple, str] = {}


def _float_stack(values) -> np.ndarray:
    """A float64 copy of ``values`` with -0.0 collapsed to 0.0, checked
    finite once for the whole stack."""
    stack = np.asarray(values, dtype=np.float64) + 0.0
    if not np.isfinite(stack).all():
        raise ValueError(_NON_FINITE)
    return stack


def _tokens(values: list, floats: dict) -> list[str]:
    """The token of each of ``values`` (finite, no -0.0), formatting only
    the values that ``floats`` does not hold yet."""
    missing = tuple(set(values).difference(floats))
    if missing:  # one format call for all of them; no token holds a comma
        floats.update(zip(missing, ("%.17g," * len(missing) % missing).split(",")))
    return list(map(floats.__getitem__, values))


@functools.cache
def _state_template(width: int) -> str:
    return '{"labels":[%s],"amps":[' + ",".join(["[%s,%s]"] * width) + "]}"


def state_texts(labels, amps, memo: RenderMemo | None = None) -> list[str]:
    """Canonical text of ``{"labels": [...], "amps": [[re, im], ...]}`` for
    each row of an (m, 2**k) complex stack; ``labels[r]``, a tuple of
    strings, names row r's qubits. Rows already in ``memo`` are not
    rendered again."""
    memo = RenderMemo() if memo is None else memo
    # the (m, 2w) float view of the (m, w) stack: (re, im) per amplitude
    stack = _float_stack(np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64))
    width = stack.shape[1]
    keys = list(zip(labels, stack.view(np.dtype((np.void, 8 * width))).ravel().tolist(),
                    strict=True))
    texts = list(map(memo.states.get, keys))
    missing = [r for r, text in enumerate(texts) if text is None]
    if missing:
        template = _state_template(width // 2)
        tokens = _tokens(stack[missing].ravel().tolist(), memo.floats)
        for i, r in enumerate(missing):
            texts[r] = memo.states[keys[r]] = template % (
                ",".join(map(_encode_str, keys[r][0])), *tokens[i * width:(i + 1) * width])
    return texts


def render_float_rows(rows, memo: RenderMemo | None = None) -> Rendered:
    """Rendered ``[[x, ...], ...]`` of equal-length rows of floats, formatting
    only the floats not yet in ``memo``."""
    if not len(rows):
        return Rendered("[]")
    stack = _float_stack(rows)
    width = stack.shape[1]
    tokens = _tokens(stack.ravel().tolist(), (RenderMemo() if memo is None else memo).floats)
    row = "[" + ",".join(["%s"] * width) + "]"
    return Rendered(("[" + ",".join([row] * len(stack)) + "]") % tuple(tokens))


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
