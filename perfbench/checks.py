"""Output checks for `aqsim run`, computed apart from the program.

Nothing here imports aqsim. Transcripts are read with the stdlib json
module, keys and pads are re-derived from ``SeedSequence([seed, trial])``
with numpy, and the signature relation is tested with explicit 2x2 Pauli
matrices, so a fault in the package cannot hide in its own check.

Every check has a name; a check that fails adds its name to the list the
functions return. ``self_check`` corrupts known-good transcripts one way
at a time and confirms that each named check fires.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

EQUALITY_TOL = 1e-9

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

DEFENSE_GRID = ((), ("wavelength-filter",), ("pns",), ("wavelength-filter", "pns"))

# The README's scenario x defense table, one verdict per DEFENSE_GRID entry.
# The wavelength filter catches the off-band `ipe` probes; the photon-number
# splitter catches every probe that shares an occupied slot.
VERDICT_TABLE = {
    "honest": ("no-dispute",) * 4,
    "bob-lies": ("inconclusive",) * 4,
    "alice-tamper": ("inconclusive",) * 4,
    "eve-disturb": ("inconclusive",) * 4,
    "alice-false-pad": ("no-dispute",) * 4,
    "ipe": ("no-dispute", "attack-detected", "attack-detected", "attack-detected"),
    "delay-photon": ("no-dispute", "no-dispute", "attack-detected", "attack-detected"),
}
TROJAN = ("ipe", "delay-photon")

CHECK_NAMES = (
    "exit-code",          # the invocation returned 0 and raised nothing
    "summary",            # stdout is the JSON summary of exactly the argv's trials
    "transcript-file",    # one file per trial, named and configured as the argv says
    "verdict",            # verdict, V and signature validity follow VERDICT_TABLE
    "signature-snapshot",  # trent's signature snapshot = signer Pauli . masked snapshot
    "board-pad",          # the published pad is (or, for a false pad, is not) the true pad
    "trojan-extraction",  # undefended probes read exactly the first 2n verifier bits
    "matched-seed-record",  # arbiter records agree across cells with one seed and trial
)


def expected_verdict(scenario: str, defenses: tuple) -> str:
    return VERDICT_TABLE[scenario][DEFENSE_GRID.index(tuple(defenses))]


def transcript_name(scenario: str, n: int, seed: int, trial: int) -> str:
    return f"{scenario}-n{n}-seed{seed}-trial{trial:04d}.json"


def trial_keys(seed: int, n: int, trial: int) -> dict:
    """Signer key, verifier key and pad of one trial, re-derived.

    The four streams are (message, keys, signing, attack). The keys stream
    draws the 2n-bit signer key, then the (4n+2)-bit verifier key; the pad
    is the signing stream's first draw.
    """
    children = np.random.SeedSequence([seed, trial]).spawn(4)
    keys = np.random.default_rng(children[1])
    sign = np.random.default_rng(children[2])
    return {
        "signer": keys.integers(0, 2, size=2 * n),
        "verifier": keys.integers(0, 2, size=4 * n + 2),
        "pad": sign.integers(0, 2, size=2 * n),
    }


def bits_hex(bits) -> str:
    """Big-endian hex: bit 0 is the top bit of the first digit, tail zero-padded."""
    bits = [int(b) for b in bits] + [0] * (-len(bits) % 4)
    return "".join(
        "0123456789abcdef"[8 * a + 4 * b + 2 * c + d]
        for a, b, c, d in zip(*[iter(bits)] * 4)
    )


def hex_bits(hex_str: str, length: int) -> list[int]:
    """Inverse of ``bits_hex`` for the first ``length`` bits."""
    value, total = int(hex_str, 16), 4 * len(hex_str)
    return [(value >> (total - 1 - i)) & 1 for i in range(length)]


def _amps(snapshots) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in s["amps"]] for s in snapshots], dtype=complex
    )


def signature_matches(masked: list, signature: list, signer_bits) -> bool:
    """Each signature snapshot equals sigma_x^x sigma_z^z applied to its masked
    snapshot, up to a global phase within EQUALITY_TOL."""
    n = len(masked)
    if len(signature) != n or len(signer_bits) < 2 * n:
        return False
    labels_ok = all(
        m["labels"] == [f"p{i + 1}"] and s["labels"] == [f"sa{i + 1}"]
        for i, (m, s) in enumerate(zip(masked, signature))
    )
    if not labels_ok:
        return False
    m, s = _amps(masked), _amps(signature)
    x, z = np.asarray(signer_bits[0:2 * n:2]), np.asarray(signer_bits[1:2 * n:2])
    paulis = np.where(x[:, None, None], SX, I2) @ np.where(z[:, None, None], SZ, I2)
    expected = np.einsum("nij,nj->ni", paulis, m)
    overlap = np.einsum("ni,ni->n", s.conj(), expected)
    phase = overlap / np.where(np.abs(overlap) > 0, np.abs(overlap), 1.0)
    distance = np.linalg.norm(expected - phase[:, None] * s, axis=1)
    return bool(np.all(distance <= EQUALITY_TOL))


def _event(doc: dict, kind: str, action: str | None = None) -> dict | None:
    for event in doc["events"]:
        if event["kind"] == kind and (action is None or event["payload"].get("action") == action):
            return event["payload"]
    return None


def record_bytes(text: str) -> bytes | None:
    """The arbiter-record payload exactly as it stands in the file."""
    marker = '"kind":"arbiter-record","payload":'
    start = text.find(marker)
    if start < 0:
        return None
    start += len(marker)
    _, end = json.JSONDecoder().raw_decode(text, start)
    return text[start:end].encode()


def check_transcript(cell: dict, trial: int, name: str, text: str, keys: dict) -> list[str]:
    """Checks on one transcript file. ``cell`` holds the argv's scenario, n,
    seed and defenses; ``keys`` comes from ``trial_keys``."""
    scenario, n, seed, defenses = cell["scenario"], cell["n"], cell["seed"], cell["defenses"]
    try:
        doc = json.loads(text)
    except ValueError:
        return ["transcript-file"]
    failed = []
    config = {"scenario": scenario, "n": n, "seed": seed, "defenses": list(defenses)}
    if name != transcript_name(scenario, n, seed, trial) or doc.get("config") != config:
        failed.append("transcript-file")

    verdict = doc["verdict"]
    checks = doc["checks"]
    want = expected_verdict(scenario, defenses)
    aborted = want == "attack-detected"
    want_valid = None if want != "no-dispute" else scenario != "alice-false-pad"
    if (
        verdict != want
        or checks["V"] != (None if aborted else 1)
        or checks["signature_valid"] is not want_valid
    ):
        failed.append("verdict")

    record = _event(doc, "arbiter-record")
    if not aborted:
        if record is None or record["V"] != 1 or not signature_matches(
            record["masked"], record["signature"], keys["signer"]
        ):
            failed.append("signature-snapshot")

    pads = [e["value"] for e in doc["board"] if e["value"].get("role") == "pad"]
    if verdict == "no-dispute":
        pad_ok = len(pads) == 1 and len(doc["board"]) == 1 and pads[0]["len"] == 2 * n
        true_pad = pad_ok and pads[0]["hex"] == bits_hex(keys["pad"])
        if not pad_ok or true_pad != (scenario != "alice-false-pad"):
            failed.append("board-pad")
    elif doc["board"]:
        failed.append("board-pad")

    if scenario in TROJAN and not aborted:
        attack = _event(doc, "attack", "intercept-and-extract")
        consumed = bits_hex(keys["verifier"][: 2 * n])
        if (
            attack is None
            or attack.get("matches_verifier_bits") is not True
            or ("extracted" in attack and (
                attack["extracted"].get("len") != 2 * n or attack["extracted"].get("hex") != consumed
            ))
        ):
            failed.append("trojan-extraction")
    return failed


def check_invocation(
    cell: dict, trials: int, rc, stdout: str, out_dir: Path
) -> tuple[list[str], dict]:
    """Checks on one `aqsim run --format json --out out_dir` invocation.

    ``rc`` is the exit code, or None if an exception escaped ``main``.
    Returns the failed check names and {trial: arbiter-record bytes} for
    the cross-cell matched-seed check.
    """
    failed = []
    if rc != 0:
        failed.append("exit-code")
    try:
        summary = json.loads(stdout)
        rows = summary["trials"]
        summary_ok = (
            summary["overall"] is True
            and summary["config"] == {
                "scenario": cell["scenario"], "n": cell["n"], "trials": trials,
                "seed": cell["seed"], "defenses": list(cell["defenses"]),
            }
            and [r["trial"] for r in rows] == list(range(trials))
        )
    except (ValueError, KeyError, TypeError):
        summary_ok, rows = False, []
    if not summary_ok:
        failed.append("summary")

    names = [transcript_name(cell["scenario"], cell["n"], cell["seed"], t) for t in range(trials)]
    on_disk = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if on_disk != sorted(names):
        failed.append("transcript-file")
    records = {}
    for trial, name in enumerate(names):
        path = out_dir / name
        if not path.is_file():
            continue
        text = path.read_text()
        keys = trial_keys(cell["seed"], cell["n"], trial)
        try:
            failed.extend(check_transcript(cell, trial, name, text, keys))
            if summary_ok and rows[trial]["verdict"] != json.loads(text)["verdict"]:
                failed.append("summary")
            records[trial] = record_bytes(text)
        except (KeyError, TypeError, ValueError, IndexError):
            failed.append("transcript-file")
    return sorted(set(failed)), records


class RecordBook:
    """Cross-cell matched-seed check: every non-aborted cell run with the same
    seed and trial must leave byte-identical arbiter-record payloads."""

    def __init__(self):
        self._first: dict = {}

    def check(self, seed: int, records: dict) -> list[str]:
        failed = []
        for trial, raw in records.items():
            if raw is None:
                continue
            first = self._first.setdefault((seed, trial), raw)
            if raw != first:
                failed.append("matched-seed-record")
        return sorted(set(failed))


# --- self-check --------------------------------------------------------------


def _flip(bits, i: int = 0):
    bits = np.array(bits)
    bits[i] ^= 1
    return bits


def _swap_slot_amps(doc: dict) -> None:
    masked = next(e for e in doc["events"] if e["kind"] == "arbiter-record")["payload"]["masked"]
    masked[0]["amps"], masked[1]["amps"] = masked[1]["amps"], masked[0]["amps"]


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc, separators=(",", ":"))


def self_check(make_transcript) -> list[str]:
    """Feed each check a corrupted transcript and confirm it fails.

    ``make_transcript(scenario, n, seed, trial)`` returns canonical
    transcript text for an undefended run. Returns a list of problems:
    empty when the clean transcripts pass and every corruption is caught.
    """
    n, seed, trial = 8, 77, 3
    problems = []

    def cell(scenario):
        return {"scenario": scenario, "n": n, "seed": seed, "defenses": ()}

    keys = trial_keys(seed, n, trial)
    name = {s: transcript_name(s, n, seed, trial) for s in VERDICT_TABLE}
    text = {s: make_transcript(s, n, seed, trial) for s in ("honest", "alice-false-pad", "ipe")}
    for scenario, t in text.items():
        failed = check_transcript(cell(scenario), trial, name[scenario], t, keys)
        if failed:
            problems.append(f"clean {scenario} transcript fails {failed}")

    published = json.loads(text["alice-false-pad"])["board"][0]["value"]
    cases = [
        ("flipped signer-key bit", "signature-snapshot", "honest", text["honest"],
         dict(keys, signer=_flip(keys["signer"], 1))),
        ("swapped slot snapshots", "signature-snapshot", "honest",
         _edit(text["honest"], _swap_slot_amps), keys),
        ("flipped pad bit", "board-pad", "honest", text["honest"], dict(keys, pad=_flip(keys["pad"]))),
        ("false pad taken for the true pad", "board-pad", "alice-false-pad",
         text["alice-false-pad"], dict(keys, pad=hex_bits(published["hex"], published["len"]))),
        ("flipped verifier-key bit", "trojan-extraction", "ipe", text["ipe"],
         dict(keys, verifier=_flip(keys["verifier"], 2 * n - 1))),
        ("wrong verdict", "verdict", "honest",
         _edit(text["honest"], lambda d: d.update(verdict="inconclusive")), keys),
        ("wrong seed in config", "transcript-file", "honest",
         _edit(text["honest"], lambda d: d["config"].update(seed=seed + 1)), keys),
    ]
    fired = set()
    for what, check, scenario, t, k in cases:
        failed = check_transcript(cell(scenario), trial, name[scenario], t, k)
        fired.update(failed)
        if check not in failed:
            problems.append(f"{what}: {check} did not fail (got {failed})")

    with tempfile.TemporaryDirectory() as empty:
        failed, _ = check_invocation(cell("honest"), 1, 2, "", Path(empty))
    fired.update(failed)
    for check in ("exit-code", "summary", "transcript-file"):
        if check not in failed:
            problems.append(f"failed invocation: {check} did not fail (got {failed})")

    book = RecordBook()
    book.check(seed, {trial: record_bytes(text["honest"])})
    tampered = record_bytes(text["honest"]).replace(b'"V":1', b'"V":0')
    failed = book.check(seed, {trial: tampered})
    fired.update(failed)
    if failed != ["matched-seed-record"]:
        problems.append("altered arbiter record: matched-seed-record did not fail")
    for scenario in ("alice-false-pad", "ipe"):
        if book.check(seed, {trial: record_bytes(text[scenario])}):
            problems.append(f"honest and {scenario} arbiter records differ at a matched seed")

    untested = set(CHECK_NAMES) - fired
    if untested:
        problems.append(f"no corruption made these checks fail: {sorted(untested)}")
    return problems
