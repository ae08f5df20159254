"""Canonical JSON with a fixed float width.

Equal structures must serialize to equal bytes: transcript replay and
arbiter-record comparisons are byte-level. The stdlib encoder uses the
shortest round-trip float repr, which is fine for parsing but leaves the
width unpinned, so every float, alone or in a row, takes one rule here:
``_float_stack`` collapses -0.0 and refuses a non-finite value, then
``%.17g`` gives 17 significant digits (lossless for IEEE doubles). Dict
insertion order is preserved.

The documents are mostly long runs of same-shaped rows (state snapshots,
carrier metadata, screening alarms, probability rows). They are rendered
by columns, where the rows are made: a row's constant text depends only on
its shape (labels per row, amplitudes per row, and whether it starts with
a carrier's id, band and slot; or, for a flat record, its keys), so it is
cut once per shape into a cached layout. Each
row's data goes in as columns: quoted labels per axis, float token
columns read from one token table, carrier ids, bands and slots. The
layout and the columns are laid into one list by slice assignment and
joined once, with no Python per row. What the renderers return is text
only: a ``Rendered`` holds the canonical text and no copy of the value,
and ``_emit`` appends that text verbatim. A trial renders the same
magnitudes many times over (a Pauli mask only permutes and negates floats),
so ``render_states`` renders several stacks in one call, whose one token
pass (``_token_columns``) formats each distinct magnitude once; nothing is
kept between calls. The same carriers travel three legs, so a carrier
stream (``protocol.CarrierStream``) keeps its ``carrier_columns`` and text.

The emitter takes exactly the built-in types the documents are made of
(dict with str keys, list, str, float, int, bool, None) plus ``Rendered``;
anything else, a tuple, a numpy scalar or a subclass of a built-in type,
is a ``TypeError``. The reference for the bytes, renderers included, is
the independent emitter in ``tests/canonical_oracle.py``.
"""
from __future__ import annotations

import functools
from itertools import accumulate
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


def _token_columns(stacks: list) -> list[list[list[str]]]:
    """The float token columns of each (m, w) float stack of ``stacks``, in
    one pass: column j of a stack holds the tokens of its rows' floats j.

    ``_float_stack`` collapses -0.0 and checks finiteness once for all the
    floats. For finite x != 0 the token of -x is "-" followed by the token of
    x, so each distinct magnitude, found by one sort, is formatted once, in
    one format call. A float's token is read from a table of those tokens and
    then their negations: at its magnitude's rank, in the second half when
    its sign bit is set."""
    flat = _float_stack(np.concatenate([np.empty(0), *(stack.ravel() for stack in stacks)]))
    magnitudes = np.abs(flat)
    order = np.argsort(magnitudes)
    ordered = magnitudes[order]
    # where each distinct magnitude starts (-1.0 is no magnitude)
    first = ordered != np.concatenate(([-1.0], ordered[:-1]))
    distinct = ordered[first].tolist()
    # one format call; no token holds a comma, and the last text is empty
    texts = ("%.17g," * len(distinct) % tuple(distinct)).split(",")[:-1]
    table = np.array(texts + ["-" + t for t in texts], dtype=object)
    index = np.empty(len(flat), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    index += np.signbit(flat) * len(texts)
    return [table[index[end - stack.size:end].reshape(stack.shape).T].tolist()
            for stack, end in zip(stacks, accumulate(stack.size for stack in stacks))]


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


def _record(keys) -> str:
    """The template of ``{key: column, ...}``, one column per key."""
    return "{" + ",".join(_encode_str(key) + ":" + _COLUMN for key in keys) + "}"


_CARRIER_KEYS = ("id", "band", "slot")


@functools.cache
def _state_layout(labels: int, amps: int, head: bool) -> tuple:
    """The layout of a row by its shape: with ``head``, the three carrier
    columns (id, band, slot); then a state of ``labels`` label columns and
    ``amps`` amplitudes of two float columns each (re, im)."""
    state = ('{"labels":[' + ",".join([_COLUMN] * labels) + '],"amps":['
             + ",".join(["[%s,%s]" % (_COLUMN, _COLUMN)] * amps) + "]}")
    if head:
        state = _record(_CARRIER_KEYS)[:-1] + ',"state":' + state + "}"
    return _layout(state)


@functools.cache
def _record_layout(keys: tuple) -> tuple:
    """The layout of a ``{key: column, ...}`` row."""
    return _layout(_record(keys))


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


def render_states(stacks) -> list[str]:
    """The canonical text of each stack of ``stacks``, their floats formatted
    in one token pass. A stack is (labels, amps, heads), and its text is the
    ``{"labels": [...], "amps": [[re, im], ...]}`` of each row of the (m, 2**k)
    complex stack ``amps``, joined by commas. ``labels`` holds k ``Labels``
    columns of m strings: column j names each row's axis j, and lends the
    label texts it keeps. ``heads`` is empty, or a stream's three columns from
    ``carrier_columns``: then row r is ``{"id", "band", "slot", "state"}``
    with row r's state as its ``"state"``."""
    shaped = []
    for labels, amps, heads in stacks:
        # the (m, 2w) float view of the (m, w) stack: (re, im) per amplitude
        floats = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
        m, width = floats.shape
        labels = [column.texts for column in labels]
        if 2 ** len(labels) * 2 != width or any(len(column) != m for column in labels):
            raise ValueError(f"{len(labels)} label columns of {[*map(len, labels)]} rows "
                             f"for {m} rows of {width // 2} amplitudes")
        shaped.append((floats, [*heads, *labels],
                       _state_layout(len(labels), width // 2, bool(heads))))
    tokens = _token_columns([floats for floats, _, _ in shaped])
    return [_fill(layout, columns + float_columns, len(floats))
            for (floats, columns, layout), float_columns in zip(shaped, tokens)]


def render_float_rows(rows) -> Rendered:
    """Rendered ``[[x, ...], ...]`` of equal-length rows of floats, through
    the token pass. Such rows (Bell branch probabilities) hold a handful of
    distinct floats many times over, and the pass formats each once."""
    stack = np.asarray(rows, dtype=np.float64)
    if not stack.size:  # no rows, or rows of no floats
        return Rendered("[" + ",".join(["[]"] * len(stack)) + "]")
    columns, = _token_columns([stack])
    return Rendered("[" + _fill(_float_layout(stack.shape[1]), columns, len(stack)) + "]")


def carrier_columns(rows) -> tuple[tuple, tuple, tuple]:
    """The id, band and slot columns, as canonical texts, of rows whose
    first three items are (id, band, slot): string ids and bands, integer
    slots."""
    ids, bands, slots, *_ = zip(*rows) if len(rows) else ((), (), ())
    return (tuple(map(_encode_str, ids)), tuple(map(_encode_str, bands)),
            tuple(map("%d".__mod__, slots)))


def render_records(keys: tuple, columns) -> Rendered:
    """Rendered ``[{keys[0]: columns[0][r], ...}, ...]``: ``columns`` holds
    one column of canonical texts per key."""
    return Rendered("[" + _fill(_record_layout(keys), columns, len(columns[0])) + "]")


def render_carriers(columns) -> Rendered:
    """Rendered ``[{"id", "band", "slot"}, ...]`` of carrier rows, laid out
    from their ``carrier_columns``."""
    return render_records(_CARRIER_KEYS, columns)


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
