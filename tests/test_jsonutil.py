"""The canonical emitter's fast path and row renderers against the old recursive emitter."""
import enum
import hashlib
import json
from collections import OrderedDict
from itertools import chain, compress
from operator import not_

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import canonical_oracle
import regen_golden
from aqsim import jsonutil
from aqsim import protocol as proto
from aqsim import statevector as sv
from aqsim.adversary import SCENARIO_TOKENS, Scenario
from aqsim.defense import DEFENSE_GRID
from aqsim.scenarios import run_scenario


class Color(str, enum.Enum):
    RED = "red"


class Level(enum.IntEnum):
    HIGH = 3


class Flag(int):
    pass


ODD_DOCUMENTS = [
    None, True, False, 0, -7, 2 ** 70, 0.0, -0.0, 1e-300, -2.5, 1 / 3,
    "", "plain", "quote\" back\\slash \n tab\t", "café ☃ \U0001f600",
    [], {}, (1, 2.0, "three"), [(), [None]], {"k": (0.1, -0.0)},
    np.float64(0.1), np.float32(0.5), np.int64(-3), np.uint8(200), np.float64(-0.0),
    Color.RED, Level.HIGH, Flag(5), OrderedDict([("b", 1), ("a", [Flag(2), Color.RED])]),
    {"nested": {"deep": [{"x": np.float64(2.0)}, [np.int32(1), True]]}},
    {"floats": [0.1, -0.0, 5e-324, 1.7976931348623157e308, 0.25], "rows": [[0.25, {"x": 0.1}]]},
    # lists of strs, and of strs mixed with other items, a str subclass too
    ["phi-plus", "quote\" back\\slash \n", "café ☃ \U0001f600", ""], ["a", 1, None, ["b"]],
    {"outcomes": ["psi-minus", "phi-plus"], "nested": [["x"], [], [[]]]},
    ["a", Color.RED], [Color.RED], ["a", ["b", Color.RED]], ["a", b"b"],
]


def built_in(doc) -> bool:
    """Whether ``doc`` is made only of the exact built-in types a document holds."""
    kind = type(doc)
    if kind is list:
        return all(map(built_in, doc))
    if kind is dict:
        return all(type(k) is str and built_in(v) for k, v in doc.items())
    return kind in (type(None), bool, int, float, str)


def floats_in(doc) -> list[float]:
    """The floats of a built-in document, in the order the emitter writes them."""
    kind = type(doc)
    if kind is list:
        return [x for item in doc for x in floats_in(item)]
    if kind is dict:
        return [x for value in doc.values() for x in floats_in(value)]
    return [doc] if kind is float else []


@pytest.mark.parametrize("doc", ODD_DOCUMENTS, ids=repr)
def test_odd_documents_match_the_oracle(doc):
    if built_in(doc):
        assert jsonutil.canonical_json(doc) == canonical_oracle.canonical_json(doc)
        # one float rule: a float emitted alone reads as the row renderer's token,
        # formatted or read back from the memo
        floats, memo = floats_in(doc), {}
        for _ in range(2):
            assert (jsonutil.render_float_rows([floats], memo).text
                    == "[[" + ",".join(map(jsonutil.canonical_json, floats)) + "]]")
    else:  # tuples, numpy scalars and subclasses of built-in types are refused
        with pytest.raises(TypeError):
            jsonutil.canonical_json(doc)


@pytest.mark.parametrize("doc,error", [
    (float("nan"), ValueError), ([float("inf")], ValueError), ({"x": -float("inf")}, ValueError),
    ({1: "a"}, TypeError), ({"a": {2.0: 1}}, TypeError), (object(), TypeError),
    ({"s": {1, 2}}, TypeError), (np.bool_(True), TypeError), (b"bytes", TypeError),
])
def test_rejections_match_the_oracle(doc, error):
    with pytest.raises(error):
        canonical_oracle.canonical_json(doc)
    with pytest.raises(error):
        jsonutil.canonical_json(doc)
    if error is ValueError:  # a non-finite float, refused by the row renderer too
        with pytest.raises(ValueError):
            jsonutil.render_float_rows([floats_in(doc)], {})


@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_golden_grid_transcripts_match_the_oracle(scenario, golden_grid):
    # the oracle, given the parsed bytes back, must write the same bytes: so
    # every rendered row in them is canonical. The n=64 runs add time but no
    # new document shapes.
    small = tuple(n for n in regen_golden.NS if n < 64)
    for defenses in DEFENSE_GRID:
        for key, result in golden_grid.runs(scenario, defenses):
            if result.message.n not in small:
                continue
            text = result.transcript_bytes().decode("ascii")
            assert canonical_oracle.canonical_json(json.loads(text)) == text, key


def test_rendered_is_text_only():
    rendered = jsonutil.Rendered('[{"a":0.5},"x"]')
    for doc in (rendered, {"rows": [rendered]}):
        with pytest.raises(TypeError):
            json.dumps(doc)
    assert (jsonutil.canonical_json({"rows": rendered, "more": [rendered, 1]})
            == '{"rows":[{"a":0.5},"x"],"more":[[{"a":0.5},"x"],1]}')


# --- row renderers ------------------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_FLOATS))


def plain_state(labels, row) -> dict:
    return {"labels": list(labels), "amps": [[float(a.real), float(a.imag)] for a in row]}


def columns_of(labels, k) -> list[jsonutil.Labels]:
    """The k label columns of rows of k labels (k empty columns for no rows)."""
    return [jsonutil.Labels(row[j] for row in labels) for j in range(k)]


def listed(text: str) -> str:
    """The canonical list of the rows in ``text``, joined by commas."""
    return "[" + text + "]"


@given(k=st.sampled_from([1, 2, 3]), m=st.integers(1, 4), data=st.data())
def test_state_renderers_match_the_oracle(k, m, data):
    # widths 2, 4 and 8: every group shape the registry holds
    values = data.draw(st.lists(FLOATS, min_size=m * 2 ** (k + 1), max_size=m * 2 ** (k + 1)))
    amps = np.array(values).view(np.complex128).reshape(m, 2 ** k)
    labels = [tuple(f"q{r}_{j}" for j in range(k)) for r in range(m)]
    plain = [plain_state(row_labels, row) for row_labels, row in zip(labels, amps)]
    text = jsonutil.render_states(columns_of(labels, k), amps, {})
    assert text == ",".join(canonical_oracle.canonical_json(doc) for doc in plain)
    rendered = jsonutil.Rendered(listed(text))
    assert jsonutil.canonical_json(rendered) == canonical_oracle.canonical_json(plain)
    assert json.loads(rendered.text) == json.loads(json.dumps(plain))


def test_state_renderers_take_any_label():
    # any string is a label, escaped as the oracle escapes it; a label that
    # is not a string is refused
    amps = np.array([[0.6, 0.8j], [1.0, 0.0]])
    labels = [("q",), ("café \"☃\"",)]
    plain = [plain_state(row_labels, row) for row_labels, row in zip(labels, amps)]
    assert (listed(jsonutil.render_states(columns_of(labels, 1), amps, {}))
            == canonical_oracle.canonical_json(plain))
    with pytest.raises(TypeError):
        jsonutil.render_states([jsonutil.Labels((0, "q"))], amps, {})


# labels and carrier metadata with quotes, backslashes, %, control and
# non-ASCII characters; never "|", which the tests use to keep labels apart
ODD_TEXT = st.text(alphabet=st.sampled_from('"\\%é☃\U0001f600\n\tq0'), max_size=4)
CARRIER_ROW = st.tuples(ODD_TEXT, ODD_TEXT, st.integers(-2 ** 40, 2 ** 40))
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


def carried(rows, states) -> list[dict]:
    """The plain {"id", "band", "slot", "state"} objects of carrier rows."""
    return [{"id": i, "band": b, "slot": slot, "state": state}
            for (i, b, slot), state in zip(rows, states)]


@given(k=st.sampled_from([1, 2, 3]), m=st.integers(0, 40), head=st.booleans(), data=st.data())
def test_the_column_renderer_matches_the_oracle(k, m, head, data):
    # 1 to 3 odd labels per row, m rows of 2, 4 or 8 amplitudes with signed
    # zeros among them, with and without the carrier columns in front; the
    # rows pick from drawn pools of floats, labels and carrier rows
    floats = np.array(data.draw(st.lists(st.one_of(FLOATS, SIGNED_ZEROS), min_size=1,
                                         max_size=8)))
    names = data.draw(st.lists(ODD_TEXT, min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.choice(floats, (m, 2 ** (k + 1))).view(np.complex128)
    labels = [tuple(names[i] for i in rng.integers(len(names), size=k)) for _ in range(m)]
    plain = [plain_state(row_labels, row) for row_labels, row in zip(labels, amps)]
    heads = ()
    if head:
        carriers = data.draw(st.lists(CARRIER_ROW, min_size=1, max_size=4))
        rows = [carriers[i] for i in rng.integers(len(carriers), size=m)]
        plain = carried(rows, plain)
        heads = jsonutil.carrier_columns(rows)
    memo = {}
    for _ in range(2):  # the second render reads its float tokens from the memo
        text = jsonutil.render_states(columns_of(labels, k), amps, memo, heads)
        assert listed(text) == canonical_oracle.canonical_json(plain)


@given(singles=st.integers(1, 6), pairs=st.integers(1, 6), head=st.booleans(), data=st.data())
def test_columns_of_two_widths_render_like_the_oracle(singles, pairs, head, data):
    # a column of single qubits and each axis of Bell-pair-shaped groups;
    # a stream that joins columns is refused
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def rows(m, width):  # unit rows, some imaginary parts a signed zero
        f = rng.normal(size=(m, 2 * width))
        f[:, 1::2] = np.where(rng.random((m, width)) < 0.3, rng.choice([0.0, -0.0], (m, width)),
                              f[:, 1::2])
        amps = f.view(np.complex128)
        return amps / np.linalg.norm(amps, axis=1, keepdims=True)

    registry = proto.QuantumRegistry()
    single_labels = tuple(f"s{i}|{data.draw(ODD_TEXT)}" for i in range(singles))
    pair_labels = [tuple(f"{tag}{i}|{data.draw(ODD_TEXT)}" for i in range(pairs))
                   for tag in "ab"]
    registry.add_columns([single_labels], rows(singles, 2))
    registry.add_columns(pair_labels, rows(pairs, 4))
    for stream in (single_labels, *pair_labels):
        plain = [registry.state_of(label).to_jsonable() for label in stream]
        heads = ()
        if head:
            carriers = tuple(data.draw(CARRIER_ROW) for _ in stream)
            plain = carried(carriers, plain)
            heads = jsonutil.carrier_columns(carriers)
        text = registry.render_states(stream, heads)
        assert listed(text) == canonical_oracle.canonical_json(plain)
    with pytest.raises(sv.LabelMismatch):
        registry.render_states(single_labels + pair_labels[1], ())


@given(m=st.integers(0, 4), w=st.integers(0, 6), data=st.data())
def test_float_rows_match_the_oracle(m, w, data):
    rows = tuple(tuple(data.draw(st.lists(FLOATS, min_size=w, max_size=w))) for _ in range(m))
    plain = [list(row) for row in rows]
    rendered = jsonutil.render_float_rows(rows, {})
    assert rendered.text == canonical_oracle.canonical_json(plain)
    assert jsonutil.canonical_json({"p": rendered}) == canonical_oracle.canonical_json({"p": plain})
    assert json.loads(rendered.text) == json.loads(json.dumps(plain))


@given(st.lists(st.tuples(st.text(), st.text(), st.integers(-2 ** 40, 2 ** 40)), max_size=5))
def test_carrier_rows_match_the_oracle(rows):
    plain = [{"id": i, "band": b, "slot": slot} for i, b, slot in rows]
    rendered = jsonutil.render_carriers(jsonutil.carrier_columns(rows))
    assert rendered.text == canonical_oracle.canonical_json(plain)
    assert json.loads(rendered.text) == plain
    state = {"labels": ["q"], "amps": [[0.6, -0.0], [0.0, 0.8]]}
    amps = np.tile(np.array([0.6, -0.0, 0.0, 0.8]).view(np.complex128), (len(rows), 1))
    text = jsonutil.render_states([jsonutil.Labels(("q",) * len(rows))], amps, {},
                                  jsonutil.carrier_columns(rows))
    assert listed(text) == canonical_oracle.canonical_json(carried(rows, [state] * len(rows)))


@given(st.lists(st.one_of(st.text(), st.booleans()), max_size=6))
def test_leaf_lists_match_the_oracle(values):
    strings = [v for v in values if type(v) is str]
    flags = [v for v in values if type(v) is bool]
    assert jsonutil.render_strings(strings).text == canonical_oracle.canonical_json(strings)
    assert jsonutil.canonical_json(strings) == canonical_oracle.canonical_json(strings)
    assert jsonutil.render_bools(flags).text == canonical_oracle.canonical_json(flags)


# --- one memo per trial --------------------------------------------------------

CALLS = st.lists(st.tuples(st.sampled_from(["states", "floats"]), st.integers(1, 3),
                           st.integers(0, 4)), min_size=1, max_size=5)


@given(pool=st.lists(FLOATS, min_size=1, max_size=4), calls=CALLS, data=st.data())
def test_renderers_sharing_one_memo_match_the_oracle(pool, calls, data):
    # a few values, each also negated, repeated over calls that all fill and
    # read one memo; with row labels from two tags, equal rows recur both
    # under the same labels and under different ones
    memo = {}
    values = st.sampled_from(pool + [-x for x in pool])
    for kind, k, m in calls:
        if kind == "states":
            flat = data.draw(st.lists(values, min_size=m * 2 ** (k + 1), max_size=m * 2 ** (k + 1)))
            amps = np.array(flat, dtype=np.float64).view(np.complex128).reshape(m, 2 ** k)
            labels = [tuple(f"{data.draw(st.sampled_from('pq'))}{j}" for j in range(k))
                      for _ in range(m)]
            assert listed(jsonutil.render_states(columns_of(labels, k), amps, memo)) == (
                canonical_oracle.canonical_json([plain_state(row_labels, row)
                                                 for row_labels, row in zip(labels, amps)]))
        else:
            rows = tuple(tuple(data.draw(st.lists(values, min_size=k, max_size=k)))
                         for _ in range(m))
            assert (jsonutil.render_float_rows(rows, memo).text
                    == canonical_oracle.canonical_json([list(row) for row in rows]))


def test_state_texts_tell_labels_apart_and_collapse_signed_zeros():
    memo = {}
    flat = [[0.6, 0.0, 0.0, 0.8], [0.6, 0.0, 0.0, 0.8], [0.6, -0.0, -0.0, 0.8]]
    amps = np.array(flat).view(np.complex128)
    labels = [("p1",), ("q1",), ("p1",)]
    expected = [canonical_oracle.canonical_json(plain_state(row_labels, row))
                for row_labels, row in zip(labels, amps)]
    swapped = [("q1",), ("p1",), ("q1",)]
    for _ in range(2):  # the second pass reads its float tokens from the memo
        assert jsonutil.render_states(columns_of(labels, 1), amps, memo) == ",".join(expected)
        assert jsonutil.render_states(columns_of(swapped, 1), amps, memo) == ",".join(
            canonical_oracle.canonical_json(plain_state(row_labels, row))
            for row_labels, row in zip(swapped, amps))
    assert expected[0] != expected[1] and expected[0] == expected[2]


@pytest.mark.parametrize("labels", [[("p1",), ("q1",), ("r1",)], [("p1",)], []])
def test_state_texts_refuse_label_and_amplitude_rows_of_different_counts(labels):
    amps = np.array([[0.6, 0.8j], [1.0, 0.0]])
    with pytest.raises(ValueError):
        jsonutil.render_states(columns_of(labels, len(labels[0]) if labels else 0), amps, {})


def test_float_memo_formats_each_magnitude_once_for_both_signs():
    memo = {}
    assert (jsonutil.render_float_rows([(0.1, 2.5, -0.0)], memo).text
            == "[[0.10000000000000001,2.5,0]]")
    assert memo == {0.1: "0.10000000000000001", -0.1: "-0.10000000000000001",
                           2.5: "2.5", -2.5: "-2.5", 0.0: "0"}
    assert (jsonutil.render_float_rows([(-0.1, -2.5, 0.0)], memo).text
            == "[[-0.10000000000000001,-2.5,0]]")
    assert len(memo) == 5


def reference_tokens(values: list, memo: dict) -> list[str]:
    """``jsonutil._tokens`` as it was with a set of the new values and a
    choice between formatting them straight and formatting each new
    magnitude, kept as the reference for its tokens and for what it leaves
    in the memo."""
    tokens = list(map(memo.get, values))
    if all(tokens):  # every value known (no token is empty)
        return tokens
    new = set(compress(values, map(not_, tokens)))
    straight = 2 * len(new) > len(values)
    formatted = values if straight else tuple(set(map(abs, new)))
    # one format call; no token holds a comma, and the last text is empty
    texts = ("%.17g," * len(formatted) % tuple(formatted)).split(",")[:-1]
    # negations first: 0.0 is its own negation, so its "-0" is then
    # overwritten by "0"
    memo.update(zip(map(float.__neg__, formatted),
                    [t[1:] if t[0] == "-" else "-" + t for t in texts]))
    memo.update(zip(formatted, texts))
    return texts if straight else list(map(memo.__getitem__, values))


# magnitudes, each drawn with both signs: 0.0, subnormals, the least normal
# and the largest double among them (-0.0 never reaches _tokens)
MAGNITUDES = st.one_of(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                       st.sampled_from([0.0, 5e-324, 2.5e-320, 2.2250738585072014e-308,
                                        1.7976931348623157e308]))


@given(pool=st.lists(MAGNITUDES, min_size=1, max_size=8),
       calls=st.lists(st.tuples(st.sampled_from([0, 1, 5, 40, 300]),
                                st.booleans(), st.integers(0, 2 ** 32 - 1)),
                      min_size=1, max_size=5))
def test_tokens_match_the_reference_over_calls_that_share_one_memo(pool, calls):
    # each call picks its values at random, each with a random sign, from the
    # drawn magnitudes, and for a fresh call also from as many random
    # magnitudes of any exponent as it has values: values repeat, within a
    # call and across calls, and come with both signs, and a call's new
    # values are mostly repeated or mostly distinct. Both memos start empty
    # and must hold the same tokens after every call
    memo, reference_memo = {}, {}
    for size, fresh, seed in calls:
        rng = np.random.default_rng(seed)
        magnitudes = pool + (np.abs(rng.standard_normal(size))
                             * 2.0 ** rng.integers(-1074, 1000, size)).tolist() * fresh
        values = [magnitudes[i] * (-1.0 if negative else 1.0) + 0.0
                  for i, negative in zip(rng.integers(len(magnitudes), size=size).tolist(),
                                         (rng.random(size) < 0.5).tolist())]
        assert jsonutil._tokens(values, memo) == reference_tokens(values, reference_memo)
        assert memo == reference_memo


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("column", [0, 1])
def test_renderers_reject_non_finite_floats_like_the_oracle(bad, column):
    row = [0.5, 0.5, 0.5, 0.5]
    row[column] = bad
    amps = np.array(row).view(np.complex128).reshape(1, 2)
    with pytest.raises(ValueError):
        canonical_oracle.canonical_json(plain_state(("q",), amps[0]))
    with pytest.raises(ValueError, match="non-finite"):
        jsonutil.render_states([jsonutil.Labels(("q",))], amps, {})
    with pytest.raises(ValueError):
        canonical_oracle.canonical_json([row])
    with pytest.raises(ValueError, match="non-finite"):
        jsonutil.render_float_rows([tuple(row)], {})


def _oracle_digest(payload, registry) -> str:
    """The payload digest as it was first defined: sha256 of the plain-dict doc."""
    doc = [{"id": c.id, "band": c.band, "slot": c.time_slot,
            "state": registry.state_of(c.payload).to_jsonable()}
           for c in chain.from_iterable(payload.streams())]
    return hashlib.sha256(canonical_oracle.canonical_json(doc).encode("ascii")).hexdigest()


@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_payload_digests_match_the_oracle(scenario, monkeypatch):
    digest, forward = proto.CipherPayload.digest, proto.bob_forward
    mismatched, widths = [], set()

    def checked_digest(payload, registry):
        got = digest(payload, registry)
        if got != _oracle_digest(payload, registry):
            mismatched.append(payload)
        widths.update(len(registry.state_of(c.payload).labels)
                      for c in chain.from_iterable(payload.streams()))
        return got

    def forward_and_digest(package, key, registry):
        # bob's outgoing payload still carries the Trojan probes, which sit
        # in two-qubit decoy pairs; the attacker pulls them before trent.
        # Each part of its masked stream is one column, and digests as one
        payload = forward(package, key, registry)
        for part in payload.masked.parts:
            proto.CipherPayload(part, payload.signature).digest(registry)
        if len(payload.masked.parts) > 1:  # the joined stream is no column
            with pytest.raises(sv.LabelMismatch):
                digest(payload, registry)
        return payload

    monkeypatch.setattr(proto.CipherPayload, "digest", checked_digest)
    monkeypatch.setattr(proto, "bob_forward", forward_and_digest)
    # undefended: screening would stop the probes before bob forwards them
    for n in (n for n in regen_golden.NS if n < 64):
        for seed in regen_golden.SEEDS:
            for trial in regen_golden.TRIALS:
                run_scenario(Scenario.from_token(scenario), n, seed, trial)
    assert not mismatched
    assert widths == ({1, 2} if scenario in ("ipe", "delay-photon") else {1})


@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_arbiter_record_digests_match_the_oracle(scenario, monkeypatch):
    # the returned digest is hashed on from the received one; both must be
    # the digests of the carriers as the registry holds them after the call
    verify, checked = proto.trent_verify, []

    def verify_and_check(payload, signer_key, verifier_key, registry):
        returned, record = verify(payload, signer_key, verifier_key, registry)
        checked.append((record.received_digest, record.returned_digest)
                       == (_oracle_digest(payload, registry), _oracle_digest(returned, registry)))
        return returned, record

    monkeypatch.setattr(proto, "trent_verify", verify_and_check)
    for n in (1, 3, 8):
        for seed in regen_golden.SEEDS:
            for trial in regen_golden.TRIALS:
                run_scenario(Scenario.from_token(scenario), n, seed, trial)
    assert checked == [True] * 12


ESCAPED = ['p"1', "p\\2", "pé3", 'v☃"\\']


def test_digests_and_send_rows_escape_ids_and_labels_like_the_oracle():
    registry = proto.QuantumRegistry()
    for column, amps in ((ESCAPED[:2], [(0.6, 0.8j), (0.8, -0.6)]), (ESCAPED[2:3], [(1, 0)]),
                         (ESCAPED[3:], [(0, 1)])):
        registry.add_columns([column], sv.qubit_rows(amps))
    masked = proto.carriers_of(ESCAPED[:2], 'band "é"', 0)
    signature = proto.CarrierStream([proto.Carrier('s\\ig"☃', proto.BAND_SIGNAL, 2, ESCAPED[2])])
    verdict = proto.CarrierStream([proto.Carrier("vé", proto.BAND_SIGNAL, 3, ESCAPED[3])])
    for payload in (proto.CipherPayload(masked, signature),
                    proto.CipherPayload(masked, signature, verdict)):
        for _ in range(2):  # rendered, then read back from each stream
            assert payload.digest(registry) == _oracle_digest(payload, registry)
            for stream in payload.streams():
                expected = canonical_oracle.canonical_json([c.meta() for c in stream])
                assert stream.rendered.text == expected
                assert jsonutil.render_carriers(jsonutil.carrier_columns(stream)).text == expected
