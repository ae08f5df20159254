"""Every transcript of the golden grid, read back against the README.

Two properties: the bytes follow the documented schema, and the only key
material in them is what the README allows (the published pad and the
``extracted`` bits of a Trojan-horse extraction).
"""
import json

import pytest

import regen_golden
from aqsim.adversary import SCENARIO_TOKENS
from aqsim.defense import DEFENSE_GRID

TOP_FIELDS = ["config", "events", "board", "verdict", "checks"]
CONFIG_FIELDS = ["scenario", "n", "seed", "defenses"]
EVENT_FIELDS = ["t", "actor", "kind", "payload"]
CHECK_FIELDS = ["V", "v5", "recover_fidelity_min", "signature_valid"]
ACTORS = {"alice", "bob", "trent", "eve"}
KINDS = {"setup", "send", "measurement", "attack", "defense-screen", "defense-alarm",
         "arbiter-record", "decision", "claim", "board-post", "verdict"}
VERDICTS = {"no-dispute", "inconclusive", "signature-invalid", "attack-detected", None}
KEY_FIELDS = {"role", "len", "hex"}
LEAK_SCAN_N = 64  # at small n, 2n-bit keys match other hex by chance


def _grid(golden_grid, scenario):
    for defenses in DEFENSE_GRID:
        yield from golden_grid.runs(scenario, defenses)


def _key_objects(node, path=()):
    """(path, object) for every {role, len, hex} object in a document."""
    if isinstance(node, dict):
        if set(node) == KEY_FIELDS:
            yield path, node
        for key, value in node.items():
            yield from _key_objects(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_objects(value, path + (i,))


def _allowed_key_object(doc, path, obj) -> bool:
    """The published pad, on the board or in its board-post event, or the
    bits a Trojan-horse extraction read off the verifier's key."""
    if path[0] == "board":
        return path[2:] == ("value",) and obj["role"] == "pad"
    if path[0] != "events" or len(path) != 4:
        return False
    event = doc["events"][path[1]]
    if path[3] == "value":
        return event["kind"] == "board-post" and obj["role"] == "pad"
    return (path[3] == "extracted" and event["kind"] == "attack"
            and event["payload"]["action"] == "intercept-and-extract"
            and obj["role"] == "extracted")


def _float_tokens(data: bytes) -> list[str]:
    tokens = []

    def keep(token):
        tokens.append(token)
        return float(token)

    def reject(token):
        raise AssertionError(f"non-finite token {token}")

    json.loads(data, parse_float=keep, parse_constant=reject)
    return tokens


def _check_schema(key, doc, data):
    assert list(doc) == TOP_FIELDS, key
    assert list(doc["config"]) == CONFIG_FIELDS, key
    for t, event in enumerate(doc["events"]):
        assert list(event) == EVENT_FIELDS, key
        assert event["t"] == t, key
        assert event["actor"] in ACTORS, key
        assert event["kind"] in KINDS, key
    for entry in doc["board"]:
        assert list(entry) == ["author", "value"], key
        assert list(entry["value"]) == ["role", "len", "hex"], key
    assert doc["verdict"] in VERDICTS, key
    checks = doc["checks"]
    assert list(checks) == CHECK_FIELDS, key
    assert checks["V"] in (0, 1, None), key
    assert checks["v5"] in ("match-ok", "mismatch", "reject", None), key
    assert checks["recover_fidelity_min"] is None or isinstance(
        checks["recover_fidelity_min"], (int, float)), key
    assert checks["signature_valid"] in (True, False, None), key
    for token in _float_tokens(data):
        assert format(float(token), ".17g") == token, (key, token)


def _check_leakage(key, result, doc, data):
    for path, obj in _key_objects(doc):
        assert _allowed_key_object(doc, path, obj), (key, path)
    if result.message.n < LEAK_SCAN_N:
        return
    for secret in (result.keys.signer, result.keys.verifier, result.keys.peer):
        assert secret.to_hex().encode() not in data, (key, secret.role)
    # the private pad may show only as the published pad: once on the board
    # and once in its board-post event
    published = [entry["value"]["hex"] for entry in doc["board"]]
    pad_hex = result.true_pad.to_hex()
    assert data.count(pad_hex.encode()) == 2 * published.count(pad_hex), key


@pytest.mark.parametrize("scenario", SCENARIO_TOKENS)
def test_golden_grid_transcripts_follow_the_schema_and_leak_no_keys(scenario, golden_grid):
    scanned = 0
    for key, result in _grid(golden_grid, scenario):
        data = result.transcript_bytes()
        doc = json.loads(data)
        _check_schema(key, doc, data)
        _check_leakage(key, result, doc, data)
        scanned += result.message.n >= LEAK_SCAN_N
    assert scanned == len(DEFENSE_GRID) * sum(n >= LEAK_SCAN_N for n, _, _ in regen_golden.RUNS)


def test_extracted_bits_are_the_verifiers_first_2n_key_bits(golden_grid):
    # the one documented exception to "no key bits in transcripts"
    key, result = next((k, r) for k, r in _grid(golden_grid, "ipe") if r.extraction_bits is not None
                       and r.message.n == LEAK_SCAN_N)
    doc = json.loads(result.transcript_bytes())
    (path, obj), = [(p, o) for p, o in _key_objects(doc) if o["role"] == "extracted"]
    n = result.message.n
    assert obj["len"] == 2 * n
    assert obj["hex"] == result.keys.verifier.to_hex()[: 2 * n // 4], key
