"""Canonical JSON with a fixed float width.

Equal structures must serialize to equal bytes: transcript replay and
arbiter-record comparisons are byte-level. The stdlib encoder uses the
shortest round-trip float repr, which is fine for parsing but leaves the
width unpinned, so every float, alone or in a row, takes one rule here:
``_float_stack`` collapses -0.0 and refuses a non-finite value, then
``%.17g`` gives 17 significant digits (lossless for IEEE doubles). Dict
insertion order is preserved.

The documents are mostly long runs of same-shaped rows (state snapshots,
carrier metadata, probability rows). They are rendered by columns, where
the rows are made: a row's constant text depends only on its shape (labels
per row, amplitudes per row, and whether it starts with a carrier's id,
band and slot), so it is cut once per shape into a cached layout. Each
row's data goes in as columns: quoted labels per axis, float tokens as
strided slices of one token list, carrier ids, bands and slots. The
layout and the columns are laid into one list by slice assignment and
joined once, with no Python per row. What the renderers return is text
only: a ``Rendered`` holds the canonical text and no copy of the value,
and ``_emit`` appends that text verbatim. A trial renders the same floats
and carrier streams many times over (a Pauli mask only permutes and
negates floats), so the float renderers take a memo, a plain dict of
float tokens that lives as long as one trial (``QuantumRegistry.memo``).
The same carriers travel three legs, so a carrier stream
(``protocol.CarrierStream``) keeps its ``carrier_columns`` and their text.

The emitter takes exactly the built-in types the documents are made of
(dict with str keys, list, str, float, int, bool, None) plus ``Rendered``;
anything else, a tuple, a numpy scalar or a subclass of a built-in type,
is a ``TypeError``. The reference for the bytes, renderers included, is
the independent emitter in ``tests/canonical_oracle.py``.
"""
from __future__ import annotations

import functools
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


def _emit(obj, out: list[str]) -> None:
    """Append the canonical tokens of ``obj`` to ``out``, dispatching on
    ``type(obj)``: only the exact built-in types are accepted."""
    kind = type(obj)
    if kind is str:
        out.append(_encode_str(obj))
    elif kind is float:
        out.append("%.17g" % _float_stack(obj))
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
        if obj and type(obj[0]) is str and [*map(type, obj)].count(str) == len(obj):
            # a list of exact strs only, such as the signer's outcomes: one join
            out.append("[" + ",".join(map(_encode_str, obj)) + "]")
            return
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


# --- the column renderer ----------------------------------------------------


class Labels(tuple):
    """A column of labels that keeps the canonical text of each label
    (``texts``), worked out on first read, which ``render_states`` lays in.
    The registry's columns (``protocol.LabelColumn``) are ``Labels``."""

    @functools.cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(map(_encode_str, self))


def _float_stack(values) -> np.ndarray:
    """A float64 copy of ``values`` with -0.0 collapsed to 0.0 (a sign-flipped
    zero leaves no trace in the bytes), checked finite once for the whole stack."""
    stack = np.asarray(values, dtype=np.float64) + 0.0
    if not np.isfinite(stack).all():
        raise ValueError(_NON_FINITE)
    return stack


def _tokens(values: list, memo: dict) -> list[str]:
    """The token of each of ``values`` (finite, no -0.0); the tokens that
    ``memo`` does not hold yet are formatted and stored there.

    For finite x != 0 the token of -x is "-" followed by the token of x, so
    each token formatted is stored under both signs; a value missing from
    ``memo`` therefore has a missing magnitude too. The new values are
    formatted once each, in the order they first appear, in one format
    call. When every value is new and distinct (the first render of a
    stream's rows), those texts are the tokens; otherwise the tokens are
    read back from ``memo``. The memo's entries follow the rows' order,
    which keeps a later render's lookups close in memory.
    """
    tokens = list(map(memo.get, values))
    if all(tokens):  # every value known (no token is empty)
        return tokens
    new = dict.fromkeys(compress(values, map(not_, tokens)) if any(tokens) else values)
    # one format call; no token holds a comma, and the last text is empty
    texts = ("%.17g," * len(new) % tuple(new)).split(",")[:-1]
    # negations first: 0.0 is its own negation, so its "-0" is then
    # overwritten by "0"
    memo.update(zip(map(float.__neg__, new), [t[1:] if t[0] == "-" else "-" + t for t in texts]))
    memo.update(zip(new, texts))
    return texts if len(new) == len(values) else list(map(memo.__getitem__, values))


_COLUMN = "\0"  # marks a column in a row template; no fragment holds it


def _layout(template: str) -> tuple[str, list, str]:
    """A row template's constant text, cut at its columns (at least one)
    and laid out for ``_fill``: (the first row's opening, the list of one
    later row with None where each column goes, the last row's close). A
    later row opens with the close of the row before it and a comma."""
    first, *middle, last = template.split(_COLUMN)
    block = [last + "," + first]
    for fragment in middle:
        block += [None, fragment]
    return first, block + [None], last


@functools.cache
def _state_layout(labels: int, amps: int, head: bool) -> tuple:
    """The layout of a row by its shape: with ``head``, the three carrier
    columns (id, band, slot); then, if ``amps``, a state of ``labels`` label
    columns and ``amps`` amplitudes of two float columns each (re, im)."""
    state = ('{"labels":[' + ",".join([_COLUMN] * labels) + '],"amps":['
             + ",".join(["[%s,%s]" % (_COLUMN, _COLUMN)] * amps) + "]}")
    if head:
        carrier = '{"id":%s,"band":%s,"slot":%s' % ((_COLUMN,) * 3)
        state = carrier + (',"state":' + state if amps else "") + "}"
    return _layout(state)


@functools.cache
def _float_layout(width: int) -> tuple:
    """The layout of a ``[x, ...]`` row of ``width`` (at least one) floats."""
    return _layout("[" + ",".join([_COLUMN] * width) + "]")


def _fill(layout: tuple, columns: list, m: int) -> str:
    """The text of m rows: row r is the layout's constant text with
    ``columns[j][r]`` in column j. The layout and the columns are laid into
    one list by slice assignment and joined once."""
    if not m:
        return ""
    first, block, last = layout
    flat = block * m
    for j, column in enumerate(columns):
        flat[2 * j + 1::len(block)] = column
    flat[0] = first
    flat.append(last)
    return "".join(flat)


def render_states(labels, amps, memo: dict, heads=()) -> str:
    """Canonical text of ``{"labels": [...], "amps": [[re, im], ...]}`` for
    each row of an (m, 2**k) complex stack, joined by commas. ``labels``
    holds k ``Labels`` columns of m strings: column j names each row's axis
    j, and lends the label texts it keeps. With ``heads``, a
    stream's three columns from ``carrier_columns``, row r is
    ``{"id", "band", "slot", "state"}`` with row r's state as its
    ``"state"``. Floats already in ``memo`` are not formatted again; the
    others are formatted and stored there."""
    # the (m, 2w) float view of the (m, w) stack, -0.0 collapsed: (re, im) per amplitude
    stack = _float_stack(np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64))
    m, width = stack.shape
    labels = [column.texts for column in labels]
    if 2 ** len(labels) * 2 != width or any(len(column) != m for column in labels):
        raise ValueError(f"{len(labels)} label columns of {[*map(len, labels)]} rows "
                         f"for {m} rows of {width // 2} amplitudes")
    tokens = _tokens(stack.ravel().tolist(), memo)
    columns = [*heads, *labels, *(tokens[j::width] for j in range(width))]
    return _fill(_state_layout(len(labels), width // 2, bool(heads)), columns, m)


def render_float_rows(rows, memo: dict) -> Rendered:
    """Rendered ``[[x, ...], ...]`` of equal-length rows of floats, formatting
    only the floats not yet in ``memo``. Such rows (Bell branch
    probabilities) hold a handful of distinct floats many times over, so
    each distinct float's token is found once and laid in from a table."""
    stack = _float_stack(rows)
    if not stack.size:  # no rows, or rows of no floats
        return Rendered("[" + ",".join(["[]"] * len(stack)) + "]")
    m, width = stack.shape
    values = stack.ravel().tolist()
    distinct = list(dict.fromkeys(values))
    tokens = list(map(dict(zip(distinct, _tokens(distinct, memo))).__getitem__, values))
    columns = [tokens[j::width] for j in range(width)]
    return Rendered("[" + _fill(_float_layout(width), columns, m) + "]")


def carrier_columns(rows) -> tuple[tuple, tuple, tuple]:
    """The id, band and slot columns, as canonical texts, of rows whose
    first three items are (id, band, slot): string ids and bands, integer
    slots."""
    ids, bands, slots, *_ = zip(*rows) if len(rows) else ((), (), ())
    return (tuple(map(_encode_str, ids)), tuple(map(_encode_str, bands)),
            tuple(map("%d".__mod__, slots)))


def render_carriers(columns) -> Rendered:
    """Rendered ``[{"id", "band", "slot"}, ...]`` of carrier rows, laid out
    from their ``carrier_columns``."""
    return Rendered("[" + _fill(_state_layout(0, 0, True), columns, len(columns[0])) + "]")


def render_strings(strings) -> Rendered:
    """Rendered ``[s, ...]`` of strings."""
    return Rendered("[" + ",".join(map(_encode_str, strings)) + "]")


_BOOLS = {True: "true", False: "false"}


def render_bools(flags) -> Rendered:
    """Rendered ``[b, ...]`` of bools."""
    return Rendered("[" + ",".join(map(_BOOLS.__getitem__, flags)) + "]")


def canonical_json(obj) -> str:
    """Serialize to a compact, byte-stable JSON string."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("ascii")
