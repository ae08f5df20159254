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
the same floats and carrier streams many times over (a Pauli mask only
permutes and negates floats, and the same carriers travel three legs), so
the renderers take a ``RenderMemo`` that keeps float tokens and carrier
heads; one memo lives as long as one trial's registry. State rows are
rendered afresh on every call: few of them recur within a trial, and
keying every row costs more than the repeats save.

The emitter takes exactly the built-in types the documents are made of
(dict with str keys, list, str, float, int, bool, None) plus ``Rendered``;
anything else, a tuple, a numpy scalar or a subclass of a built-in type,
is a ``TypeError``. The reference for the bytes, renderers included, is
the independent emitter in ``tests/canonical_oracle.py``.
"""
from __future__ import annotations

import functools
import math
from itertools import compress
from json.encoder import encode_basestring_ascii as _encode_str
from operator import not_

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
            _emit(value, out)
            sep = ","
        out.append("}")
    elif kind is list:
        out.append("[")
        sep = ""
        for item in obj:
            out.append(sep)
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
    """The texts rendered so far in one trial that are worth keeping.

    - ``floats`` maps a float's exact value to its token. Each magnitude is
      formatted once and stored under both signs (see ``_tokens``).
    - ``carriers`` maps a tuple of carrier rows, by identity, to that tuple
      and the text each of its objects starts with (see ``carrier_heads``).

    It belongs to one ``QuantumRegistry``, so it lives exactly as long as
    one trial.
    """

    __slots__ = ("floats", "carriers")

    def __init__(self):
        self.floats: dict[float, str] = {}
        self.carriers: dict[int, tuple] = {}


def _float_stack(values) -> np.ndarray:
    """A float64 copy of ``values`` with -0.0 collapsed to 0.0, checked
    finite once for the whole stack."""
    stack = np.asarray(values, dtype=np.float64) + 0.0
    if not np.isfinite(stack).all():
        raise ValueError(_NON_FINITE)
    return stack


def _tokens(values: list, floats: dict) -> list[str]:
    """The token of each of ``values`` (finite, no -0.0); the tokens that
    ``floats`` does not hold yet are formatted and stored there.

    For finite x != 0 the token of -x is "-" followed by the token of x, so
    each token formatted is stored under both signs; a value missing from
    ``floats`` therefore has a missing magnitude too. When most values are
    new and distinct, all of them are formatted straight, in order, in one
    format call; otherwise each new magnitude is formatted once.
    """
    tokens = list(map(floats.get, values))
    if all(tokens):  # every value known (no token is empty)
        return tokens
    new = set(compress(values, map(not_, tokens)))
    straight = 2 * len(new) > len(values)
    formatted = values if straight else tuple(set(map(abs, new)))
    # one format call; no token holds a comma, and the last text is empty
    texts = ("%.17g," * len(formatted) % tuple(formatted)).split(",")[:-1]
    # negations first: 0.0 is its own negation, so its "-0" is then
    # overwritten by "0"
    floats.update(zip(map(float.__neg__, formatted),
                      [t[1:] if t[0] == "-" else "-" + t for t in texts]))
    floats.update(zip(formatted, texts))
    return texts if straight else list(map(floats.__getitem__, values))


@functools.cache
def _amps_template(width: int) -> str:
    """The ``%`` template of a row's amps, closing the row's object."""
    return ",".join(["[%s,%s]"] * width) + "]}"


def state_texts(labels, amps, memo: RenderMemo | None = None) -> list[str]:
    """Canonical text of ``{"labels": [...], "amps": [[re, im], ...]}`` for
    each row of an (m, 2**k) complex stack; ``labels[r]``, a tuple of
    strings, names row r's qubits. Floats already in ``memo`` are not
    formatted again."""
    # the (m, 2w) float view of the (m, w) stack, -0.0 collapsed: (re, im) per amplitude
    stack = _float_stack(np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64))
    if len(labels) != len(stack):
        raise ValueError(f"{len(labels)} label rows for {len(stack)} amplitude rows")
    tokens = _tokens(stack.ravel().tolist(), (RenderMemo() if memo is None else memo).floats)
    # one format call for the amplitudes of all the rows; no token holds a
    # newline, and the last text is empty
    bodies = ((_amps_template(stack.shape[1] // 2) + "\n") * len(stack)
              % tuple(tokens)).split("\n")[:-1]
    return ['{"labels":[%s],"amps":[%s' % (",".join(map(_encode_str, row)), body)
            for row, body in zip(labels, bodies)]


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


def carrier_heads(rows, memo: RenderMemo | None = None) -> tuple[str, ...]:
    """The text ``{"id":...,"band":...,"slot":...`` that the object of each
    row starts with, for rows whose first three items are (id, band, slot):
    string ids and bands, integer slots.

    A tuple of rows (of immutable rows, such as carriers) is rendered once
    per ``memo``: the memo keeps its texts, keyed by the tuple's identity,
    and holds the tuple itself so that the identity is not reused.
    """
    kept = memo.carriers.get(id(rows)) if memo is not None else None
    if kept is not None:
        return kept[1]
    heads = tuple('{"id":%s,"band":%s,"slot":%d' % (_encode_str(row[0]), _encode_str(row[1]),
                                                      row[2]) for row in rows)
    if memo is not None and type(rows) is tuple:
        memo.carriers[id(rows)] = (rows, heads)
    return heads


def carrier_rows_text(heads, states=None) -> str:
    """Canonical text of the list of objects that start with ``heads`` (see
    ``carrier_heads``). With ``states`` (canonical texts, one per head),
    each object also ends in a ``"state"`` member holding that text."""
    if states is None:
        return "[" + "},".join(heads) + "}]" if heads else "[]"
    return "[" + ",".join(map('%s,"state":%s}'.__mod__, zip(heads, states, strict=True))) + "]"


def render_carriers(rows, memo: RenderMemo | None = None) -> Rendered:
    """Rendered ``[{"id", "band", "slot"}, ...]`` from rows that start with
    (id, band, slot), as ``carrier_heads`` renders them."""
    return Rendered(carrier_rows_text(carrier_heads(rows, memo)))


def canonical_json(obj) -> str:
    """Serialize to a compact, byte-stable JSON string."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("ascii")
