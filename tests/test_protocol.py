import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_oracle
import oracles
import store_layout
from aqsim import adversary as adv
from aqsim import protocol as proto
from aqsim import qotp, scenarios
from aqsim import statevector as sv
from aqsim.adversary import Scenario
from aqsim.defense import DEFENSE_GRID
from aqsim.jsonutil import canonical_json
from aqsim.protocol import (
    CLAIM_FOLLOWED,
    CLAIM_PAD_MISMATCH,
    CLAIM_TELEPORT_MISMATCH,
    Claim,
    CompareResult,
    MessageSpec,
    PublicBoard,
    QuantumRegistry,
    TrentRecord,
    Verdict,
)
from aqsim.qotp import KeyBits
from aqsim.scenarios import run_scenario
from aqsim.statevector import BELL_ORDER, BellOutcome, PauliBits


def generic_spec(n, seed):
    return proto.random_message_spec(n, np.random.default_rng(seed), generic_margin=0.05)


class BranchRng:
    """A seeded generator whose Bell draws all pick ``outcome``.

    Every teleport branch has probability 1/4 within ``UNIFORM_LAW_TOL``, so
    the draw (k + 0.5)/4 picks branch k of BELL_ORDER. The pad comes from
    the seeded generator's ``integers``, as it would without the stub.
    """

    def __init__(self, seed, outcome):
        self.integers = np.random.default_rng(seed).integers
        self.u = (BELL_ORDER.index(outcome) + 0.5) / 4

    def random(self, size):
        return np.full(size, self.u)


def manual_run(spec, signer_bits, verifier_bits, rng=None, tamper_results=None):
    """Drive the raw protocol steps with explicit keys, no scenario layer."""
    n = spec.n
    registry = QuantumRegistry()
    signer_key = KeyBits(tuple(signer_bits), qotp.ROLE_SIGNER)
    verifier_key = KeyBits(tuple(verifier_bits), qotp.ROLE_VERIFIER)
    rng = rng if rng is not None else np.random.default_rng(0)
    alice_labels, bob_labels = proto.distribute_bell_pairs(n, registry)
    package, pad, private = proto.alice_sign(spec, signer_key, rng, registry, alice_labels)
    if tamper_results is not None:
        package = proto.SignaturePackage(package.masked, package.signature, tamper_results(package))
    payload = proto.bob_forward(package, verifier_key, registry)
    returned, record = proto.trent_verify(payload, signer_key, verifier_key, registry)
    report = proto.bob_verify_and_compare(
        returned, package.bell_results, bob_labels, verifier_key, registry
    )
    return SimpleNamespace(registry=registry, package=package, payload=payload, returned=returned,
                           record=record, report=report, pad=pad, private=private,
                           signer_key=signer_key, verifier_key=verifier_key, bob_labels=bob_labels)


def honest_keys(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = proto.setup_keys(n, rng)
    return keys.signer.bits, keys.verifier.bits


# --- message specs ----------------------------------------------------------


def test_message_spec_validates_normalization():
    with pytest.raises(sv.NotNormalized):
        MessageSpec(((1, 1),))


def test_message_spec_is_immutable():
    spec = MessageSpec(((1, 0),))
    assert repr(spec) == "MessageSpec(coefficients=(((1+0j), 0j),))"
    for name in ("amps", "_coefficients", "coefficients", "n"):
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(spec, name)
    assert spec == MessageSpec(((1, 0),)) and hash(spec) == hash(MessageSpec(((1, 0),)))
    assert spec.coefficients == ((1, 0),)


def test_random_message_spec_generic_margin():
    spec = proto.random_message_spec(50, np.random.default_rng(2), generic_margin=0.05)
    for a, b in spec.coefficients:
        cross = a.conjugate() * b
        axis_max = max(abs(2 * cross.real), abs(2 * cross.imag), abs(abs(a) ** 2 - abs(b) ** 2))
        assert axis_max <= 0.95 + 1e-12


def test_random_message_spec_refuses_a_margin_no_qubit_passes():
    # every pure qubit has a Bloch component of size at least 1/sqrt(3)
    # (about 0.5774), so at a margin of 0.43 every try would be rejected
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        proto.random_message_spec(1, rng, generic_margin=0.43)
    assert rng.bit_generator.state == state
    (a, b), = proto.random_message_spec(1, rng, generic_margin=0.42).coefficients
    cross = a.conjugate() * b
    assert max(abs(2 * cross.real), abs(2 * cross.imag), abs(abs(a) ** 2 - abs(b) ** 2)) <= 0.58


def one_draw_per_try(n, rng, margin):
    """``random_message_spec``'s coefficients drawn one qubit try at a time."""
    coeffs = []
    while len(coeffs) < n:
        re_a, im_a, re_b, im_b = rng.normal(size=4)
        a, b = complex(re_a, im_a), complex(re_b, im_b)
        norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
        if norm < 1e-6:
            continue
        a, b = a / norm, b / norm
        cross = a.conjugate() * b
        if margin == 0.0 or max(abs(2.0 * cross.real), abs(2.0 * cross.imag),
                                abs(abs(a) ** 2 - abs(b) ** 2)) <= 1.0 - margin:
            coeffs.append((a, b))
    return tuple(coeffs)


def float_bits(coefficients):
    return [(x.real.hex(), x.imag.hex()) for pair in coefficients for x in pair]


@pytest.mark.parametrize("margin", [0.0, 0.05, 0.3, 0.42])
def test_random_message_spec_block_draws_match_one_draw_per_try(margin):
    # a wide margin rejects most tries, so the blocks are drawn again many
    # times; the coefficients, the prepared rows and the generator's state
    # must still match. At 0.42 about one try in 25,000 passes, so the cases
    # there are few and small.
    wide = margin == 0.42

    @settings(max_examples=5 if wide else 60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(1, 2 if wide else 300))
    def check(seed, n):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = proto.random_message_spec(n, rng, generic_margin=margin)
        expected = one_draw_per_try(n, ref_rng, margin)
        assert float_bits(spec.coefficients) == float_bits(expected)
        assert spec.amps.tobytes() == np.array(
            [sv.make_qubit(a, b, "q").amps for a, b in expected]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    check()


SAMPLER_CHILD = """
import sys
import numpy as np
sys.path[:0] = {paths!r}
from aqsim import protocol as proto
from test_protocol import float_bits, one_draw_per_try
for n, margin, seeds in {cases!r}:
    for seed in range(seeds):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        spec = proto.random_message_spec(n, rng, generic_margin=margin)
        expected = one_draw_per_try(n, ref_rng, margin)
        assert float_bits(spec.coefficients) == float_bits(expected), (n, margin, seed)
        assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, margin, seed)
print("ok")
"""


def test_the_sampler_matches_one_draw_per_try_without_numpys_wide_simd_loops():
    # np.hypot and np.float_power must give the scalar expression's bits under
    # every numpy dispatch target, so a child process runs the check with the
    # AVX2-or-better loops off (the variable is set in its environment only).
    # At a margin of 0.42 a qubit takes about 25,000 tries, so n=1 only there.
    cases = [(n, margin, 3) for n in (1, 8, 256) for margin in (0.0, 0.05)] + [(1, 0.42, 1)]
    paths = [str(Path(proto.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}
    child = subprocess.run([sys.executable, "-c", SAMPLER_CHILD.format(paths=paths, cases=cases)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert (child.returncode, child.stdout, child.stderr) == (0, "ok\n", "")


# --- key setup --------------------------------------------------------------


def test_setup_keys_lengths():
    keys = proto.setup_keys(4, np.random.default_rng(0))
    assert (len(keys.signer), len(keys.verifier), len(keys.peer)) == (8, 18, 8)
    assert keys.signer.role == qotp.ROLE_SIGNER
    assert keys.verifier.role == qotp.ROLE_VERIFIER
    assert keys.peer.role == qotp.ROLE_PEER


def test_setup_keys_seeded_identical():
    k1 = proto.setup_keys(3, np.random.default_rng(42))
    k2 = proto.setup_keys(3, np.random.default_rng(42))
    assert (k1.signer, k1.verifier, k1.peer) == (k2.signer, k2.verifier, k2.peer)


def test_setup_keys_bit_balance_within_5_sigma():
    # binomial bound oracle over 10^4 runs at n=1 (10 bits per run)
    rng = np.random.default_rng(1000)
    ones = 0
    total = 0
    for _ in range(10_000):
        keys = proto.setup_keys(1, rng)
        for k in (keys.signer, keys.verifier, keys.peer):
            ones += sum(k.bits)
            total += len(k.bits)
    bound = 5 * math.sqrt(total * 0.25)
    assert abs(ones - total / 2) <= bound


def test_setup_keys_rejects_zero():
    with pytest.raises(ValueError):
        proto.setup_keys(0, np.random.default_rng(0))


# --- bell pair distribution -------------------------------------------------


def test_distribute_bell_pairs_single():
    registry = QuantumRegistry()
    alice_labels, bob_labels = proto.distribute_bell_pairs(1, registry)
    assert alice_labels == ("a1",) and bob_labels == ("b1",)
    group = registry.state_of("a1")
    assert group.labels == registry.state_of("b1").labels == ("a1", "b1")
    np.testing.assert_allclose(group.amps, oracles.BELL_VECS["phi-plus"])


def test_distribute_bell_pairs_correlated():
    # projector oracle: joint computational outcomes 00/11 each with prob 1/2
    registry = QuantumRegistry()
    proto.distribute_bell_pairs(2, registry)
    probs = registry.state_of("a2").probabilities
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-15)


def test_distribute_bell_pairs_rejects_zero():
    with pytest.raises(ValueError):
        proto.distribute_bell_pairs(0, QuantumRegistry())


# --- signing ----------------------------------------------------------------


def test_alice_sign_trivial_message(monkeypatch):
    draw_pad = qotp.random_pad

    def zero_pad(n, rng):  # drawn, so that the signing stream keeps its draws
        draw_pad(n, rng)
        return KeyBits((0, 0), qotp.ROLE_PAD)

    monkeypatch.setattr(qotp, "random_pad", zero_pad)
    spec = MessageSpec(((1, 0),))
    run = manual_run(spec, signer_bits=(0, 0), verifier_bits=(0,) * 6)
    np.testing.assert_allclose(run.registry.state_of("p1").amps, [1, 0])
    np.testing.assert_allclose(run.registry.state_of("sa1").amps, [1, 0])
    assert run.private.outcome_probabilities[0] == pytest.approx((0.25,) * 4, abs=1e-12)


def test_alice_sign_forced_phi_plus_leaves_b_qubit_ready():
    # with the identity branch drawn, the verifier's half already equals
    # the masked qubit before any correction
    spec = generic_spec(2, 7)
    registry = QuantumRegistry()
    rng = BranchRng(1, BellOutcome.PHI_PLUS)
    signer_key = KeyBits((1, 0, 0, 1), qotp.ROLE_SIGNER)
    alice_labels, bob_labels = proto.distribute_bell_pairs(2, registry)
    package, _, _ = proto.alice_sign(spec, signer_key, rng, registry, alice_labels)
    assert package.bell_results == (BellOutcome.PHI_PLUS,) * 2
    for i in range(2):
        b_state = registry.state_of(bob_labels[i])
        masked = registry.state_of(f"p{i + 1}")
        assert oracles.vec_equal_up_to_phase(b_state.amps, masked.amps, 1e-9)


def test_alice_sign_same_seed_identical_package():
    spec = generic_spec(3, 11)

    def one():
        registry = QuantumRegistry()
        alice_labels, _ = proto.distribute_bell_pairs(3, registry)
        package, pad, _ = proto.alice_sign(
            spec, KeyBits((1, 0, 1, 1, 0, 0), qotp.ROLE_SIGNER),
            np.random.default_rng(99), registry, alice_labels,
        )
        states = tuple(registry.state_of(c.payload).canonical_bytes() for c in package.masked)
        return package.bell_results, pad.bits, states

    assert one() == one()


def test_alice_sign_uniform_law_recorded():
    spec = generic_spec(4, 13)
    run = manual_run(spec, *honest_keys(4))
    assert run.private.max_probability_deviation <= 1e-12


# --- forwarding and arbiter check -------------------------------------------


def test_bob_forward_zero_key_leaves_states():
    spec = generic_spec(2, 17)
    registry = QuantumRegistry()
    alice_labels, _ = proto.distribute_bell_pairs(2, registry)
    package, _, _ = proto.alice_sign(
        spec, KeyBits((0, 1, 1, 0), qotp.ROLE_SIGNER),
        np.random.default_rng(3), registry, alice_labels,
    )
    before = [registry.state_of(c.payload).amps.copy() for c in package.masked]
    payload = proto.bob_forward(package, KeyBits((0,) * 10, qotp.ROLE_VERIFIER), registry)
    for c, prev in zip(payload.masked, before):
        np.testing.assert_array_equal(registry.state_of(c.payload).amps, prev)


def test_bob_forward_carrier_count_and_no_bell_results():
    spec = generic_spec(3, 19)
    run = manual_run(spec, *honest_keys(3))
    assert len(run.payload.masked) + len(run.payload.signature) == 6
    assert not hasattr(run.payload, "bell_results")


def test_trent_verify_honest_sets_bit():
    run = manual_run(generic_spec(3, 23), *honest_keys(3))
    assert run.record.verified == 1


def test_trent_verify_round_trip_restores_plaintext():
    # the decrypt inside trent_verify must undo bob's encryption exactly:
    # the recorded snapshots equal the pre-forward states
    spec = generic_spec(2, 29)
    registry = QuantumRegistry()
    signer_bits, verifier_bits = honest_keys(2, seed=5)
    signer_key = KeyBits(signer_bits, qotp.ROLE_SIGNER)
    verifier_key = KeyBits(verifier_bits, qotp.ROLE_VERIFIER)
    alice_labels, _ = proto.distribute_bell_pairs(2, registry)
    package, _, _ = proto.alice_sign(spec, signer_key, np.random.default_rng(4),
                                     registry, alice_labels)
    plain = [registry.state_of(c.payload).to_jsonable() for c in package.masked]
    payload = proto.bob_forward(package, verifier_key, registry)
    _, record = proto.trent_verify(payload, signer_key, verifier_key, registry)
    assert record.masked_snapshot.text == canonical_json(plain)


def test_trent_verify_flags_wrong_signer_binding():
    # sign under a signer key differing in one bit; on a generic message the
    # recomputed binding cannot match (statevector oracle backs the claim)
    spec = generic_spec(2, 31)
    signer_bits, verifier_bits = honest_keys(2, seed=9)
    wrong = tuple(signer_bits[:3]) + (signer_bits[3] ^ 1,)
    registry = QuantumRegistry()
    rng = np.random.default_rng(6)
    alice_labels, _ = proto.distribute_bell_pairs(2, registry)
    package, _, _ = proto.alice_sign(
        spec, KeyBits(wrong, qotp.ROLE_SIGNER), rng, registry, alice_labels)
    payload = proto.bob_forward(package, KeyBits(verifier_bits, qotp.ROLE_VERIFIER), registry)
    _, record = proto.trent_verify(
        payload, KeyBits(signer_bits, qotp.ROLE_SIGNER),
        KeyBits(verifier_bits, qotp.ROLE_VERIFIER), registry)
    assert record.verified == 0


def _forwarded(n, seed):
    """A signed (``_signed``) and forwarded run, stopped before the arbiter."""
    registry, _, package, _, verifier_key = _signed(n, seed)
    return SimpleNamespace(registry=registry, verifier_key=verifier_key,
                           signer_key=KeyBits(honest_keys(n, seed=seed)[0], qotp.ROLE_SIGNER),
                           payload=proto.bob_forward(package, verifier_key, registry))


def _stream_rows(registry, package):
    return [registry.amps_of(s.labels).tobytes() for s in (package.masked, package.signature)]


def test_bob_forward_refuses_a_key_that_misses_a_slot_before_masking_any_stream():
    n = 3
    registry, _, package, _, verifier_key = _signed(n, 67)
    before = _stream_rows(registry, package)
    # a key for the masked stream alone; and a carrier in slot -1, which numpy
    # would key with the verifier key's last two bits, those of slot 2n
    short = KeyBits(verifier_key.bits[:2 * n + 2], qotp.ROLE_VERIFIER)
    masked = proto.CarrierStream([package.masked[0]._replace(time_slot=-1), *package.masked[1:]])
    for forwarded, key, index in (
            (package, short, 2 * n - 1),
            (proto.SignaturePackage(masked, package.signature, package.bell_results),
             verifier_key, -1)):
        with pytest.raises(qotp.KeyTooShort, match=f"index {index}$"):
            proto.bob_forward(forwarded, key, registry)
        assert _stream_rows(registry, package) == before


def _carrier_bytes(registry, carriers):
    return [registry.state_of(c.payload).amps.tobytes() for c in carriers]


def test_trent_verify_writes_only_the_verification_qubit():
    # p, sa and b read as they arrived, each a family of its own, as is v,
    # the one new column; t and a stay measured
    n = 3
    run, plan = _forwarded(n, 53), proto.slot_plan(n)
    registry, verifier_key = run.registry, run.verifier_key
    carriers = run.payload.masked + run.payload.signature + plan.halves
    before = _carrier_bytes(registry, carriers)
    returned, record = proto.trent_verify(run.payload, run.signer_key, verifier_key, registry)
    assert record.verified == 1
    assert _carrier_bytes(registry, carriers) == before
    streams = (plan.masked, plan.signature, plan.halves, plan.verification)
    assert [registry.stack(s.labels)[0] for s in streams] == [(s.labels,) for s in streams]
    for gone in ("t1", "a1"):
        with pytest.raises(sv.UnknownLabel):
            registry.state_of(gone)
    assert returned.verdict_carrier.time_slot == 2 * n
    x, z = verifier_key.bits[4 * n], verifier_key.bits[4 * n + 1]
    expected = sv.apply_pauli(sv.make_qubit(0, 1, "v"), "v", PauliBits(x, z))
    np.testing.assert_array_equal(registry.state_of("v").amps, expected.amps)


def test_trent_verify_refuses_a_probe_and_leaves_the_registry_unchanged():
    # a Trojan probe is half of a two-qubit group, so its stream cannot be
    # compared by content; the refusal must come before anything is written
    n = 2
    run = _forwarded(n, 59)
    registry, payload = run.registry, run.payload
    decoys = adv.make_decoy_set(n, registry)
    probe = proto.Carrier(id=decoys.pairs[0][0], band=proto.BAND_SIGNAL, time_slot=0)
    swapped = proto.CipherPayload(masked=proto.CarrierStream((probe,) + payload.masked[1:]),
                                  signature=payload.signature)
    carriers = payload.masked + payload.signature + (probe,)
    before = _carrier_bytes(registry, carriers)
    with pytest.raises(sv.StateError):
        proto.trent_verify(swapped, run.signer_key, run.verifier_key, registry)
    assert _carrier_bytes(registry, carriers) == before
    with pytest.raises(sv.UnknownLabel):
        registry.state_of("v")


def test_trent_verify_refuses_a_payload_that_carries_a_verification_qubit():
    run = _forwarded(2, 61)
    payload, registry = run.payload, run.registry
    extra = proto.CarrierStream([proto.Carrier("b1", proto.BAND_SIGNAL, 4)])
    carrying = proto.CipherPayload(payload.masked, payload.signature, extra)
    with pytest.raises(proto.ProtocolError):
        proto.trent_verify(carrying, run.signer_key, run.verifier_key, registry)
    with pytest.raises(sv.UnknownLabel):
        registry.state_of("v")


def test_trent_verify_refuses_an_empty_payload_before_it_reads_the_registry():
    keys = proto.setup_keys(2, np.random.default_rng(5))
    registry = proto.QuantumRegistry()
    empty = proto.CipherPayload(proto.CarrierStream(), proto.CarrierStream())
    with pytest.raises(proto.ProtocolError, match="empty payload"):
        proto.trent_verify(empty, keys.signer, keys.verifier, registry)
    with pytest.raises(sv.UnknownLabel):  # v, the one qubit the arbiter registers
        registry.state_of("v")


def test_the_arbiters_record_matches_the_oracle_for_unrelated_signature_rows():
    # the signature rows are independent random rows, not Pauli images of the
    # masked rows, so the two streams share no magnitudes: the record's one
    # render must still give each stream the oracle's bytes
    n, rng = 5, np.random.default_rng(73)
    plan, registry = proto.slot_plan(n), QuantumRegistry()
    keys = proto.setup_keys(n, rng)
    held = {}
    for stream in (plan.masked, plan.signature):
        held[stream] = [np.array(oracles.random_qubit(rng)) for _ in stream]
        registry.add_columns([stream.labels], held[stream])
    payload = proto.CipherPayload(plan.masked, plan.signature)
    returned, record = proto.trent_verify(payload, keys.signer, keys.verifier, registry)
    assert record.verified == 0

    def pauli(carrier):  # the verifier key's Pauli for the carrier's slot
        bits = keys.verifier.bits
        return oracles.pauli_matrix(bits[2 * carrier.time_slot], bits[2 * carrier.time_slot + 1])

    def plain(label, amps) -> dict:
        return {"labels": [label], "amps": [[float(a.real), float(a.imag)] for a in amps]}

    def rows(stream, states) -> list:
        return [{"id": c.id, "band": c.band, "slot": c.time_slot, "state": plain(c.payload, s)}
                for c, s in zip(stream, states)]

    for stream, snapshot in ((plan.masked, record.masked_snapshot),
                             (plan.signature, record.signature_snapshot)):
        decrypted = [pauli(c).conj().T @ amps for c, amps in zip(stream, held[stream])]
        assert snapshot.text == canonical_oracle.canonical_json(
            [plain(c.payload, amps) for c, amps in zip(stream, decrypted)])
    v = plan.verification[0]
    received = rows(plan.masked, held[plan.masked]) + rows(plan.signature, held[plan.signature])
    for digest, doc in ((record.received_digest, received),
                        (record.returned_digest, received + rows([v], [pauli(v) @ [1, 0]]))):
        text = canonical_oracle.canonical_json(doc).encode("ascii")
        assert digest == hashlib.sha256(text).hexdigest()
    assert returned.verification is plan.verification
    assert record.returned_digest == returned.digest(registry)


def test_a_payload_refuses_a_bare_carrier_or_items_that_are_not_carriers():
    run = _forwarded(2, 61)
    masked, signature = run.payload.masked, run.payload.signature
    carrier = proto.Carrier("v", proto.BAND_SIGNAL, 4)
    # only a CarrierStream is a stream: a plain tuple or list of carriers is refused too
    for bad in (carrier, ("v",), (carrier, "v"), (carrier,), [carrier]):
        with pytest.raises(TypeError):
            proto.CipherPayload(masked, signature, bad)
        with pytest.raises(TypeError):
            proto.SignaturePackage(bad, signature, (None, None))
    stream = proto.CarrierStream([carrier])
    assert proto.CipherPayload(masked, signature, stream).verdict_carrier == carrier


@pytest.mark.parametrize("items,kind", [
    (["v"], "str"),
    ([("x",)], "tuple"),
    ([proto.Carrier("v", proto.BAND_SIGNAL, 4), None], "NoneType"),
    (iter([("v", proto.BAND_SIGNAL, 4)]), "tuple"),  # a Carrier's fields, not a Carrier
])
def test_a_carrier_stream_refuses_items_that_are_not_carriers(items, kind):
    # a stream of non-carriers would pass the packages' CarrierStream rule
    with pytest.raises(TypeError, match=f"^a CarrierStream holds Carriers, not {kind}$"):
        proto.CarrierStream(items)
    assert proto.CarrierStream() == () and type(proto.CarrierStream()) is proto.CarrierStream


def test_trent_record_is_blind():
    run = manual_run(generic_spec(2, 37), *honest_keys(2))
    doc = run.record.to_jsonable()
    assert list(doc) == ["received_digest", "masked", "signature", "V", "returned_digest"]
    blob = run.record.canonical_bytes().decode()
    for token in ("phi-plus", "phi-minus", "psi-plus", "psi-minus"):
        assert token not in blob
    for snapshot in (doc["masked"], doc["signature"]):  # one Rendered list per stream
        states = json.loads(snapshot.text)
        assert len(states) == 2
        for state in states:
            assert all(l.startswith(("p", "sa")) for l in state["labels"])


# --- verifier compare -------------------------------------------------------


@pytest.mark.parametrize("outcome", BELL_ORDER)
def test_bob_compare_match_for_every_forced_outcome(outcome):
    spec = generic_spec(2, 41)
    run = manual_run(spec, *honest_keys(2), rng=BranchRng(0, outcome))
    assert run.package.bell_results == (outcome,) * 2
    assert run.report.result is CompareResult.MATCH_OK
    assert run.report.per_qubit == (True, True)


def test_bob_compare_mismatch_on_flipped_result():
    def flip_first(package):
        results = list(package.bell_results)
        row = BELL_ORDER.index(results[0])
        results[0] = BELL_ORDER[(row + 1) % 4]
        return tuple(results)

    run = manual_run(generic_spec(2, 43), *honest_keys(2), tamper_results=flip_first)
    assert run.report.result is CompareResult.MISMATCH
    assert run.report.per_qubit[0] is False
    assert run.report.per_qubit[1] is True


def test_bob_rejects_on_failed_verification_bit():
    # wrong signer binding drives V to 0; bob must stop before comparing
    spec = generic_spec(2, 47)
    signer_bits, verifier_bits = honest_keys(2, seed=15)
    wrong = (signer_bits[0] ^ 1,) + tuple(signer_bits[1:])
    registry = QuantumRegistry()
    alice_labels, bob_labels = proto.distribute_bell_pairs(2, registry)
    package, _, _ = proto.alice_sign(
        spec, KeyBits(wrong, qotp.ROLE_SIGNER), np.random.default_rng(8),
        registry, alice_labels)
    payload = proto.bob_forward(package, KeyBits(verifier_bits, qotp.ROLE_VERIFIER), registry)
    returned, record = proto.trent_verify(
        payload, KeyBits(signer_bits, qotp.ROLE_SIGNER),
        KeyBits(verifier_bits, qotp.ROLE_VERIFIER), registry)
    assert record.verified == 0
    report = proto.bob_verify_and_compare(
        returned, package.bell_results, bob_labels,
        KeyBits(verifier_bits, qotp.ROLE_VERIFIER), registry)
    assert report.result is CompareResult.REJECT
    assert report.per_qubit == ()


# --- board ------------------------------------------------------------------


def test_board_post_and_read():
    board = PublicBoard()
    pad = qotp.random_pad(2, np.random.default_rng(0))
    proto.publish_pad(board, pad)
    assert board.entries == (("alice", pad.to_jsonable()),)


def test_board_keeps_posts_in_order():
    board = PublicBoard()
    board.post("alice", {"v": 1})
    board.post("bob", {"v": 2})
    assert [a for a, _ in board.entries] == ["alice", "bob"]
    assert board.to_jsonable() == [
        {"author": "alice", "value": {"v": 1}},
        {"author": "bob", "value": {"v": 2}},
    ]


# --- recovery and final check -----------------------------------------------


def test_bob_recover_honest_fidelity():
    spec = generic_spec(3, 53)
    run = manual_run(spec, *honest_keys(3))
    masked = run.registry.sequence([c.payload for c in run.payload.masked])
    recovered = proto.bob_recover(masked, run.pad)
    for i, state in enumerate(recovered):
        assert sv.fidelity(state, spec.qubit(i, state.labels[0])) >= 1 - 1e-9


def test_bob_recover_zero_pad_is_identity():
    spec = generic_spec(2, 59)
    run = manual_run(spec, *honest_keys(2))
    masked = run.registry.sequence([c.payload for c in run.payload.masked])
    recovered = proto.bob_recover(masked, KeyBits((0,) * 4, qotp.ROLE_PAD))
    for before, after in zip(masked, recovered):
        np.testing.assert_array_equal(before.amps, after.amps)


def test_bob_recover_wrong_pad_degrades_fidelity():
    spec = generic_spec(2, 61)
    run = manual_run(spec, *honest_keys(2))
    masked = run.registry.sequence([c.payload for c in run.payload.masked])
    wrong_bits = (run.pad.bits[0] ^ 1,) + tuple(run.pad.bits[1:])
    recovered = proto.bob_recover(masked, KeyBits(wrong_bits, qotp.ROLE_PAD))
    fid = sv.fidelity(recovered[0], spec.qubit(0, recovered[0].labels[0]))
    assert fid < 1 - 1e-6


# the final check over held states, and over their rows as the flow holds them
VERIFY_SIGNATURE = (
    proto.verify_signature_pair,
    lambda states, *rest: proto.verify_signature_rows(np.array([s.amps for s in states]), *rest),
)


def test_verify_signature_pair_honest():
    spec = generic_spec(3, 67)
    run = manual_run(spec, *honest_keys(3))
    signature = run.registry.sequence([c.payload for c in run.payload.signature])
    for verify in VERIFY_SIGNATURE:
        assert verify(signature, run.pad, spec, run.signer_key)


def test_verify_signature_pair_fails_on_wrong_pad():
    spec = generic_spec(2, 71)
    run = manual_run(spec, *honest_keys(2))
    signature = run.registry.sequence([c.payload for c in run.payload.signature])
    wrong = KeyBits((run.pad.bits[0] ^ 1,) + tuple(run.pad.bits[1:]), qotp.ROLE_PAD)
    for verify in VERIFY_SIGNATURE:
        assert not verify(signature, wrong, spec, run.signer_key)


def test_verify_signature_pair_fails_on_tampered_signature():
    spec = generic_spec(2, 73)
    run = manual_run(spec, *honest_keys(2))
    signature = list(run.registry.sequence([c.payload for c in run.payload.signature]))
    signature[1] = sv.apply_pauli(signature[1], signature[1].labels[0], PauliBits(1, 0))
    for verify in VERIFY_SIGNATURE:
        assert not verify(tuple(signature), run.pad, spec, run.signer_key)


# --- arbitration ------------------------------------------------------------


def _record(verified):
    return TrentRecord("d1", (), (), verified, "d2")


def test_arbitrate_inconclusive_on_live_dispute():
    verdict = proto.arbitrate(
        _record(1), Claim("alice", CLAIM_FOLLOWED), Claim("bob", CLAIM_TELEPORT_MISMATCH)
    )
    assert verdict is Verdict.INCONCLUSIVE
    assert proto.arbitrate(
        _record(1), Claim("alice", CLAIM_FOLLOWED), Claim("bob", CLAIM_PAD_MISMATCH)
    ) is Verdict.INCONCLUSIVE


def test_arbitrate_invalid_when_bit_failed():
    verdict = proto.arbitrate(
        _record(0), Claim("alice", CLAIM_FOLLOWED), Claim("bob", CLAIM_TELEPORT_MISMATCH)
    )
    assert verdict is Verdict.SIGNATURE_INVALID


def test_arbitrate_no_dispute():
    verdict = proto.arbitrate(
        _record(1), Claim("alice", CLAIM_FOLLOWED), Claim("bob", CLAIM_FOLLOWED)
    )
    assert verdict is Verdict.NO_DISPUTE


def test_arbitrate_is_deterministic():
    args = (_record(1), Claim("alice", CLAIM_FOLLOWED), Claim("bob", CLAIM_TELEPORT_MISMATCH))
    assert proto.arbitrate(*args) is proto.arbitrate(*args)


# --- end-to-end and transcript ----------------------------------------------


@pytest.mark.parametrize("n", [1, 3])
def test_honest_completeness_small(n):
    for trial in range(10):
        result = run_scenario(Scenario.from_token("honest"), n, 202, trial)
        assert result.checks["V"] == 1
        assert result.checks["v5"] == "match-ok"
        assert result.checks["recover_fidelity_min"] >= 1 - 1e-9
        assert result.checks["signature_valid"] is True
        assert result.bell_prob_max_dev <= 1e-12


def test_transcript_replay_is_byte_identical():
    a = run_scenario(Scenario.from_token("honest"), 3, 404, 1)
    b = run_scenario(Scenario.from_token("honest"), 3, 404, 1)
    assert a.transcript_bytes() == b.transcript_bytes()
    c = run_scenario(Scenario.from_token("honest"), 3, 404, 2)
    assert a.transcript_bytes() != c.transcript_bytes()


def test_transcript_schema():
    result = run_scenario(Scenario.from_token("honest"), 2, 505, 0)
    doc = json.loads(result.transcript_bytes())
    assert list(doc) == ["config", "events", "board", "verdict", "checks"]
    assert list(doc["config"]) == ["scenario", "n", "seed", "defenses"]
    assert doc["config"] == {"scenario": "honest", "n": 2, "seed": 505, "defenses": []}
    assert list(doc["checks"]) == ["V", "v5", "recover_fidelity_min", "signature_valid"]
    for i, event in enumerate(doc["events"]):
        assert list(event) == ["t", "actor", "kind", "payload"]
        assert event["t"] == i
        assert event["actor"] in ("alice", "bob", "trent", "eve")
    assert doc["board"][0]["author"] == "alice"
    assert doc["verdict"] == "no-dispute"


def test_transcript_events_cover_flow():
    result = run_scenario(Scenario.from_token("honest"), 2, 606, 0)
    kinds = [e["kind"] for e in result.transcript.events]
    for kind in ("setup", "send", "measurement", "arbiter-record", "decision", "board-post"):
        assert kind in kinds


def plan_lookups(n, token, monkeypatch):
    """Each stream that a trial of ``token`` at n hands the registry, in
    order, asserting that each is one whole column of the slot plan."""
    plan = proto.slot_plan(n)
    columns = {plan.alice, plan.halves.labels, plan.teleport, plan.probes, plan.keepers,
               plan.masked.labels, plan.signature.labels, plan.verification.labels}
    looked_up = store_layout.record_lookups(monkeypatch)
    run_scenario(Scenario.from_token(token), n, 7, 0)
    assert looked_up and set(looked_up) <= columns
    return looked_up


def test_each_label_stream_is_walked_at_most_once_per_trial(monkeypatch):
    # no stream is walked label by label: the Trojan masked stream, the one
    # stream that spans two families, goes in as its two parts, the message
    # and probe columns, each found by one lookup
    plan = proto.slot_plan(64)
    for token in ("ipe", "delay-photon"):
        looked_up = plan_lookups(64, token, monkeypatch)
        assert plan.probes in looked_up and plan.masked.labels in looked_up


@pytest.mark.parametrize("n", [8, 256])
def test_an_honest_trial_walks_no_stream(n, monkeypatch):
    # every stream an honest trial hands the registry is one plan column,
    # found by one lookup; the probe columns never come up
    looked_up = plan_lookups(n, "honest", monkeypatch)
    assert proto.slot_plan(n).probes not in looked_up


@pytest.mark.parametrize("n", [8, 256])
def test_an_honest_trial_checks_rows_11_times(n, monkeypatch):
    # rows are checked where they are made: the p, sa and t rows by
    # qotp.mask_rows and the Bell residual by bell_measure_rows, so the
    # registry takes them without checking them again
    checks = []
    check_rows = sv.check_rows
    monkeypatch.setattr(sv, "check_rows", lambda amps: checks.append(len(amps)) or check_rows(amps))
    run_scenario(Scenario.from_token("honest"), n, 7, 0)
    assert len(checks) == 11


def _signed(n, seed):
    """A signed run: the registry, the carrier label streams, the package,
    the label columns of the pair family as read before signing, and the
    verifier key."""
    signer_bits, verifier_bits = honest_keys(n, seed=seed)
    registry = QuantumRegistry()
    alice_labels, bob_labels = proto.distribute_bell_pairs(n, registry)
    kept, _ = registry.stack(bob_labels)
    package, _, _ = proto.alice_sign(generic_spec(n, seed), KeyBits(signer_bits, qotp.ROLE_SIGNER),
                                     np.random.default_rng(seed), registry, alice_labels)
    streams = SimpleNamespace(a=alice_labels, b=bob_labels, **{
        tag: tuple(f"{tag}{i}" for i in range(1, n + 1)) for tag in ("p", "sa", "t")})
    return registry, streams, package, kept, KeyBits(verifier_bits, qotp.ROLE_VERIFIER)


def test_bell_measure_many_drops_only_the_streams_of_the_families_it_measured():
    registry, streams, package, kept, _ = _signed(4, 61)
    assert kept == (streams.a, streams.b)  # one family when the pairs were added
    # the teleport and pair families were measured; p and sa stay as alice_sign
    # registered them, and the b halves stay alone in the residual family
    for gone in (streams.t, streams.a):
        with pytest.raises(sv.UnknownLabel):
            registry.stack(gone)
    for stream in (streams.p, streams.sa, streams.b):
        assert registry.stack(stream)[0] == (stream,)
    assert package.masked.labels == streams.p
    assert package.signature.labels == streams.sa


def test_the_registry_keeps_the_plans_label_streams_as_its_columns():
    # the plan's label columns are made once per process, as ``LabelColumn``
    # that keep their label texts and sets; a trial registers them as they are,
    # with no per-trial copy
    registry, streams, package, _, _ = _signed(4, 64)
    plan = proto.slot_plan(4)
    p, sa, b = (registry.stack(s)[0] for s in (streams.p, streams.sa, streams.b))
    assert p == (plan.masked.labels,)
    assert p[0] is plan.masked.labels is package.masked.labels
    assert sa[0] is plan.signature.labels
    assert b[0] is plan.halves.labels  # the residual of the pair family's b column
    decoys = adv.make_decoy_set(4, registry)
    assert decoys.probes is plan.probes and decoys.keepers is plan.keepers
    assert decoys.pairs == tuple(zip(plan.probes, plan.keepers))


def test_a_stream_that_names_a_measured_label_raises():
    registry, streams, _, _, _ = _signed(4, 62)
    for stream in (streams.t, streams.a, (streams.p[0], streams.t[0]), streams.b[:2] + streams.a[:1]):
        with pytest.raises(sv.UnknownLabel):
            registry.amps_of(stream)
        with pytest.raises(sv.UnknownLabel):
            registry.stack(stream)
        with pytest.raises(sv.UnknownLabel):
            registry.apply_paulis(stream, [1] * len(stream), [1] * len(stream))
    assert registry.amps_of(streams.b).shape == (4, 2)


def test_a_stream_that_names_an_unhashable_label_raises_unknown_label():
    # no live column holds a label that is not a str: the lookup says so,
    # before any row is written
    registry, streams, _, _, _ = _signed(2, 64)
    before = registry.amps_of(streams.b).tobytes()
    for stream in ([["x"], "b"], [streams.b[0], ["x"]]):
        with pytest.raises(sv.UnknownLabel):
            registry.amps_of(stream)
        with pytest.raises(sv.UnknownLabel):
            registry.apply_paulis(stream, [1, 1], [1, 1])
    assert registry.amps_of(streams.b).tobytes() == before


def test_bob_forward_refuses_a_label_in_both_streams():
    # masked and signature are one transmission: a column in both is keyed
    # twice, and a stream that is no column cannot be keyed; each raises
    # before either stream is masked
    registry, streams, package, _, verifier_key = _signed(3, 63)
    before = [registry.amps_of(stream).tobytes() for stream in (streams.p, streams.sa)]
    for signature, error in ((package.masked, sv.DuplicateLabel),
                             (proto.CarrierStream(package.masked[:1] + package.signature[1:]),
                              sv.LabelMismatch)):
        both = proto.SignaturePackage(package.masked, signature, package.bell_results)
        with pytest.raises(error):
            proto.bob_forward(both, verifier_key, registry)
        assert [registry.amps_of(stream).tobytes() for stream in (streams.p, streams.sa)] == before


def test_mask_streams_resolves_every_part_before_it_masks_any():
    # a carrier that names no live qubit, in a later stream of one
    # transmission, raises before the p rows are masked
    n = 2
    registry, streams, package, _, verifier_key = _signed(n, 68)
    assert any(verifier_key.bits[:2 * n])  # the key would change the p rows
    ghost = proto.CarrierStream([proto.Carrier("ghost", proto.BAND_SIGNAL, 2)])
    before = registry.amps_of(streams.p).tobytes()
    with pytest.raises(sv.UnknownLabel):
        proto.bob_forward(proto.SignaturePackage(package.masked, ghost, package.bell_results[:1]),
                          verifier_key, registry)
    assert registry.amps_of(streams.p).tobytes() == before


@pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
def test_rng_streams_are_the_spawned_children_of_seed_and_trial(seed):
    for trial in (0, 5):
        streams = scenarios.rng_streams(seed, trial)
        children = np.random.SeedSequence(entropy=[seed, trial]).spawn(4)
        for name, child in zip(("message", "keys", "sign", "attack"), children):
            ref, got = np.random.default_rng(child), getattr(streams, name)
            assert got.random(4).tolist() == ref.random(4).tolist()
            assert got.integers(0, 2, 16).tolist() == ref.integers(0, 2, 16).tolist()


def test_an_honest_trial_builds_three_generators(monkeypatch):
    # only eve-disturb, alice-false-pad and the Trojan extraction draw from
    # the attack stream, so an honest trial never builds it
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
    run_scenario(Scenario.from_token("honest"), 8, 7, 0)
    assert len(built) == 3


def test_the_flow_builds_no_pure_state(monkeypatch):
    # every step of every scenario under every defense set works on registry
    # rows; PureState is the scalar reference and the replay's adapters only
    built = []
    init, checked = sv.PureState.__init__, sv.PureState._checked.__func__
    monkeypatch.setattr(sv.PureState, "__init__", lambda self, labels, amps:
                        built.append(labels) or init(self, labels, amps))
    monkeypatch.setattr(sv.PureState, "_checked", classmethod(
        lambda cls, labels, amps: built.append(labels) or checked(cls, labels, amps)))
    for variant in adv.ScenarioVariant:
        for defenses in DEFENSE_GRID:
            run_scenario(Scenario.from_token(variant.value), 8, 7, 0, defenses)
    assert built == []


# --- the slot plan ----------------------------------------------------------


def _bytes(scenario, n, seed=11, trial=0):
    return run_scenario(Scenario.from_token(scenario), n, seed, trial).transcript_bytes()


@pytest.mark.parametrize("scenario", ["honest", "ipe", "delay-photon", "alice-tamper"])
def test_a_trial_reads_the_same_with_its_plan_cold_or_warm(scenario):
    n, maxsize = 3, proto.slot_plan.cache_info().maxsize
    proto.slot_plan.cache_clear()
    cold = _bytes(scenario, n)
    assert proto.slot_plan.cache_info().currsize == 1
    assert _bytes(scenario, n) == cold
    for trojan in ("ipe", "delay-photon"):  # a Trojan trial of the same n reads the same plan
        _bytes(trojan, n, seed=12)
        assert _bytes(scenario, n) == cold
    for m in range(n + 1, n + 2 + maxsize):  # more sizes than the cache holds: n's is evicted
        _bytes("honest", m)
    misses = proto.slot_plan.cache_info().misses
    assert _bytes(scenario, n) == cold
    assert proto.slot_plan.cache_info().misses == misses + 1


def test_the_plan_is_shared_and_read_only():
    plan = proto.slot_plan(4)
    assert proto.slot_plan(4) is plan
    assert plan.masked.labels == ("p1", "p2", "p3", "p4") and plan.teleport[-1] == "t4"
    assert plan.signature.slots.tolist() == [4, 5, 6, 7]
    assert plan.verification == (proto.Carrier("v", proto.BAND_SIGNAL, 8),)
    for stream in (plan.halves, plan.masked, plan.signature, plan.verification):
        with pytest.raises(ValueError):
            stream.slots[0] = 9
    assert plan.signature.slots.tolist() == [4, 5, 6, 7]
    # a package keeps the plan's streams, so they are not rebuilt per trial
    package = proto.SignaturePackage(plan.masked, plan.signature, (BellOutcome.PHI_PLUS,) * 4)
    assert package.masked is plan.masked and package.signature is plan.signature
    with pytest.raises(TypeError):  # a copy of a stream is no stream
        proto.SignaturePackage(tuple(plan.masked), list(plan.signature), package.bell_results)


def test_a_carrier_is_its_qubits_label_a_band_and_a_slot():
    carrier = proto.Carrier("p1", proto.BAND_SIGNAL, 0)
    assert proto.Carrier._fields == ("id", "band", "time_slot")
    assert carrier.payload is carrier.id == "p1"
    assert "bob" not in proto.SlotPlan._fields


def test_every_stream_carriers_of_builds_quotes_each_label_and_band_once(monkeypatch):
    # a stream's id texts are its label texts, and each band is one text
    built, make = [], proto.carriers_of
    monkeypatch.setattr(proto, "carriers_of", lambda *args: built.append(make(*args)) or built[-1])
    proto.slot_plan.cache_clear()
    for token in adv.SCENARIO_TOKENS:
        for defenses in DEFENSE_GRID:
            run_scenario(Scenario.from_token(token), 4, 7, 0, defenses)
    plan = proto.slot_plan(4)
    assert [*map(id, built)] == [*map(id, (plan.halves, plan.masked, plan.signature,
                                           plan.verification))]
    for stream in built + [plan.masked.interleaved(plan.probes, proto.BAND_OFF)]:
        ids, bands, _ = stream.columns
        assert ids is stream.labels.texts
        assert stream.labels == tuple(carrier.id for carrier in stream)
        assert len({*map(id, bands)}) == len({carrier.band for carrier in stream})


@given(st.lists(st.tuples(st.text(), st.text(max_size=2), st.integers(-2 ** 40, 2 ** 40)),
                max_size=12))
def test_a_stream_holds_one_band_text_per_distinct_band(rows):
    stream = proto.CarrierStream(map(proto.Carrier._make, rows))
    ids, bands, slots = stream.columns
    assert ids is stream.labels.texts
    assert [ids, bands, slots] == ([tuple(map(canonical_json, column))
                                    for column in zip(*rows)] or [(), (), ()])
    texts = {}
    for carrier, text in zip(stream, bands):
        assert texts.setdefault(carrier.band, text) is text


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_the_plans_columns_are_disjoint(n):
    # no two of the plan's eight label columns share a label, and no column
    # repeats one, so no stream of the flow meets a label refusal of the
    # store; the Trojan masked stream's second part is the probe column
    plan = proto.slot_plan(n)
    columns = (plan.alice, plan.teleport, plan.probes, plan.keepers, plan.halves.labels,
               plan.masked.labels, plan.signature.labels, plan.verification.labels)
    assert all(type(column) is proto.LabelColumn for column in columns)
    labels = [label for column in columns for label in column]
    assert {*map(type, labels)} == {str} and len(set(labels)) == len(labels) == 7 * n + 1
    for band in (proto.BAND_SIGNAL, proto.BAND_OFF):
        assert plan.masked.interleaved(plan.probes, band).parts[1].labels == plan.probes


def test_the_verifiers_halves_are_one_column():
    # the b column that distribute_bell_pairs registers, and that the Bell
    # residual keeps, is the halves stream's label column
    plan = proto.slot_plan(4)
    registry, streams, _, kept, _ = _signed(4, 65)
    assert streams.b is plan.halves.labels
    assert kept[0] is plan.alice and kept[1] is plan.halves.labels
    residual, _ = registry.stack(plan.halves.labels)
    assert residual == (plan.halves.labels,) and residual[0] is streams.b


def test_the_plan_cache_stays_within_its_bound():
    maxsize = proto.slot_plan.cache_info().maxsize
    for n in [*range(3 * maxsize), *range(maxsize, 0, -1)]:
        proto.slot_plan(n)
        assert proto.slot_plan.cache_info().currsize <= maxsize
    with pytest.raises(ValueError):
        proto.slot_plan(-1)


@pytest.mark.parametrize("scenario", ["ipe", "delay-photon"])
def test_a_trojan_trials_own_streams_die_with_its_result(scenario, monkeypatch):
    # the injected stream is made once per band and kept with the plan's
    # masked stream, not with the trial's result: every trial of n sends the
    # same one, the interception hands back the masked stream itself, and
    # evicting the plan frees it. A tuple takes no weak reference, so the
    # stream is followed by the slots array it keeps.
    import gc
    import weakref

    n, sent, returned = 4, [], []
    band, other = {"ipe": (proto.BAND_OFF, proto.BAND_SIGNAL),
                   "delay-photon": (proto.BAND_SIGNAL, proto.BAND_OFF)}[scenario]
    inject, intercept = adv._inject, adv.intercept_decoys

    def kept_inject(*args):
        package = inject(*args)
        sent.append(package.masked)
        return package

    def kept_intercept(*args):
        payload, captured = intercept(*args)
        returned.append(payload.masked)
        return payload, captured

    monkeypatch.setattr(adv, "_inject", kept_inject)
    monkeypatch.setattr(adv, "intercept_decoys", kept_intercept)
    proto.slot_plan.cache_clear()
    results = [run_scenario(Scenario.from_token(scenario), n, 5, trial) for trial in range(2)]
    assert all(result.extraction_matches for result in results) and len(sent) == 2
    plan = proto.slot_plan(n)
    assert sent[0] is sent[1] is plan.masked.interleaved(plan.probes, band)
    assert sent[0] is not plan.masked.interleaved(plan.probes, other)
    assert all(masked is plan.masked for masked in returned)
    ref = weakref.ref(sent[0].slots)
    del results, plan, sent, returned
    gc.collect()
    assert ref() is not None  # the results are gone, but the plan still holds it
    proto.slot_plan(n + 1)  # evicts n's plan
    gc.collect()
    assert ref() is None


def test_a_warm_trojan_trial_builds_no_carrier_and_no_stream(monkeypatch):
    # past the first trial of n, every stream a Trojan trial sends or screens
    # is one the plan keeps, under every defense set
    trials = [(variant, defenses) for variant in ("ipe", "delay-photon")
              for defenses in DEFENSE_GRID]
    for variant, defenses in trials:
        run_scenario(Scenario.from_token(variant), 8, 7, 0, defenses)
    built = []
    new, make, stream_new = proto.Carrier.__new__, proto.Carrier._make, proto.CarrierStream.__new__
    monkeypatch.setattr(proto.Carrier, "__new__",
                        lambda cls, *args: built.append(cls) or new(cls, *args))
    monkeypatch.setattr(proto.Carrier, "_make",
                        classmethod(lambda cls, items: built.append(cls) or make(items)))
    monkeypatch.setattr(proto.CarrierStream, "__new__",
                        lambda cls, *args: built.append(cls) or stream_new(cls, *args))
    proto.carriers_of(("x",), proto.BAND_SIGNAL, 0)
    assert {*built} == {proto.Carrier, proto.CarrierStream}  # the hooks see what is built
    built.clear()
    for variant, defenses in trials:
        run_scenario(Scenario.from_token(variant), 8, 7, 1, defenses)
    assert built == []
