import json
from itertools import chain

import numpy as np
import pytest

import oracles
import store_layout
from aqsim import adversary as adv
from aqsim import protocol as proto
from aqsim import qotp
from aqsim.adversary import (
    IndexOutOfRange,
    InvalidPhase,
    MissingDecoy,
    RunState,
    Scenario,
    ScenarioVariant,
    SizeMismatch,
)
from aqsim.protocol import (
    BAND_OFF,
    BAND_SIGNAL,
    CompareResult,
    MessageSpec,
    PublicBoard,
    QuantumRegistry,
)
from aqsim.scenarios import run_scenario
from aqsim.statevector import BellOutcome, LabelMismatch


def scenario(token):
    return Scenario.from_token(token)


# --- scenario plumbing ------------------------------------------------------


def test_honest_scenario_takes_no_parameters():
    assert Scenario(ScenarioVariant.HONEST).tamper_indices == ()
    assert Scenario(ScenarioVariant.ALICE_TAMPERS).tamper_indices == (1,)


def test_scenario_tokens_round_trip():
    for token in adv.SCENARIO_TOKENS:
        assert Scenario.from_token(token).token == token
    with pytest.raises(ValueError):
        ScenarioVariant.from_token("bogus")


# --- verifier repudiation ----------------------------------------------------


def test_dos_negate_requires_comparison_phase():
    with pytest.raises(InvalidPhase):
        adv.bob_dos_negate(RunState(phase="signed"))
    with pytest.raises(InvalidPhase):
        adv.bob_dos_negate(RunState(phase="compared", genuine_compare=CompareResult.MISMATCH))


def test_run_state_takes_a_phase_or_its_value():
    assert RunState(phase="compared").phase is adv.Phase.COMPARED
    assert RunState("signed") == RunState(adv.Phase.SIGNED)
    assert [phase.value for phase in adv.Phase] == [
        "setup", "signed", "forwarded", "verified", "compared"]
    with pytest.raises(ValueError):
        RunState(phase="done")
    with pytest.raises(InvalidPhase, match=r"\(phase=verified\)"):
        adv.bob_dos_negate(RunState(adv.Phase.VERIFIED))


def test_dos_negate_produces_dispute_claim():
    claim = adv.bob_dos_negate(RunState(phase="compared", genuine_compare=CompareResult.MATCH_OK))
    assert claim.party == "bob"
    assert claim.statement == proto.CLAIM_TELEPORT_MISMATCH


def test_bob_lies_run_is_inconclusive_with_clean_record():
    result = run_scenario(scenario("bob-lies"), 3, 17, 0)
    assert result.checks["V"] == 1
    assert result.genuine_compare == "match-ok"
    assert result.verdict == "inconclusive"
    assert len(result.board.entries) == 0  # aborted before any pad request


# --- result tampering ---------------------------------------------------------


def _tiny_package():
    carriers = proto.CarrierStream(
        proto.Carrier(id=f"p{i + 1}", band=BAND_SIGNAL, time_slot=i)
        for i in range(2)
    )
    sig = proto.CarrierStream(
        proto.Carrier(id=f"sa{i + 1}", band=BAND_SIGNAL, time_slot=2 + i)
        for i in range(2)
    )
    return proto.SignaturePackage(carriers, sig, (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS))


def test_tamper_validates_indices():
    package = _tiny_package()
    with pytest.raises(IndexOutOfRange):
        adv.alice_tamper_outcomes(package, ())
    with pytest.raises(IndexOutOfRange):
        adv.alice_tamper_outcomes(package, (0,))
    with pytest.raises(IndexOutOfRange):
        adv.alice_tamper_outcomes(package, (3,))


def test_tamper_replaces_with_different_variant():
    package = _tiny_package()
    tampered = adv.alice_tamper_outcomes(package, (1, 2))
    for before, after in zip(package.bell_results, tampered.bell_results):
        assert before is not after
    assert tampered.masked is package.masked
    assert tampered.signature is package.signature


def test_eve_disturb_replaces_with_different_variant():
    package = _tiny_package()
    rng = np.random.default_rng(5)
    for _ in range(20):
        disturbed = adv.eve_disturb_outcomes(package, (1,), rng)
        assert disturbed.bell_results[0] is not package.bell_results[0]
        assert disturbed.bell_results[1] is package.bell_results[1]


def test_tampered_run_breaks_comparison_not_record():
    honest = run_scenario(scenario("honest"), 3, 23, 0)
    tampered = run_scenario(scenario("alice-tamper"), 3, 23, 0)
    assert tampered.checks["V"] == 1
    assert tampered.checks["v5"] == "mismatch"
    assert tampered.record.canonical_bytes() == honest.record.canonical_bytes()


def test_eve_run_logged_under_eve_actor():
    result = run_scenario(scenario("eve-disturb"), 2, 29, 0)
    attack_events = [e for e in result.transcript.events if e["kind"] == "attack"]
    assert attack_events and all(e["actor"] == "eve" for e in attack_events)
    assert result.checks["v5"] == "mismatch"
    assert result.verdict == "inconclusive"


def test_dilemma_indistinguishability_matched_seeds():
    for trial in range(10):
        runs = [run_scenario(scenario(t), 4, 31, trial)
                for t in ("bob-lies", "alice-tamper", "eve-disturb")]
        blobs = {r.record.canonical_bytes() for r in runs}
        assert len(blobs) == 1
        assert all(r.verdict == "inconclusive" for r in runs)


# --- false pad publication ----------------------------------------------------


def test_false_pad_differs_and_is_posted():
    board = PublicBoard()
    true_pad = qotp.random_pad(3, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(50):
        false_pad = adv.alice_publish_false_pad(board, true_pad, rng)
        assert false_pad.bits != true_pad.bits
    assert len(board.entries) == 50


def test_false_pad_run_breaks_signature_checks():
    result = run_scenario(scenario("alice-false-pad"), 3, 37, 0)
    assert result.checks["V"] == 1
    assert result.checks["v5"] == "match-ok"
    assert result.checks["signature_valid"] is False
    assert result.checks["recover_fidelity_min"] < 1 - 1e-6
    assert result.verdict == "no-dispute"
    assert len(result.board.entries) == 1


def test_false_pad_run_indistinguishable_from_honest_twin(monkeypatch):
    # an honest run whose message is the (wrongly) recovered one and whose
    # pad is the published value produces a byte-identical transcript except
    # for the two checks that need the signer's private message description
    draw_pad = qotp.random_pad
    for trial in range(5):
        fr = run_scenario(scenario("alice-false-pad"), 3, 41, trial)
        published = fr.published_pad
        message = [fr.message.qubit(i, f"m{i + 1}") for i in range(fr.message.n)]
        masked = qotp.encrypt(message, fr.true_pad)
        twin_states = qotp.decrypt(masked, published)
        twin_spec = MessageSpec(tuple((s.amps[0], s.amps[1]) for s in twin_states))

        def published_pad(n, rng):  # drawn, so that the signing stream keeps its draws
            draw_pad(n, rng)
            return published

        with monkeypatch.context() as patch:
            patch.setattr(proto, "random_message_spec", lambda *args, **kwargs: twin_spec)
            patch.setattr(qotp, "random_pad", published_pad)
            twin = run_scenario(scenario("honest"), 3, 41, trial)

        assert twin.checks["signature_valid"] is True
        assert fr.checks["signature_valid"] is False
        assert twin.checks["recover_fidelity_min"] >= 1 - 1e-9

        d_false = json.loads(fr.transcript_bytes())
        d_twin = json.loads(twin.transcript_bytes())
        for doc in (d_false, d_twin):
            doc["config"]["scenario"] = None  # harness bookkeeping, not observable
            doc["checks"]["recover_fidelity_min"] = None  # needs the private spec
            doc["checks"]["signature_valid"] = None  # needs the private spec
        assert d_false == d_twin


# --- decoy injection ----------------------------------------------------------


def test_ipe_inject_layout():
    registry = QuantumRegistry()
    package = _tiny_package()
    decoys = adv.make_decoy_set(2, registry)
    injected = adv.ipe_inject(package, decoys)
    assert len(injected.masked) == 4
    bands = [c.band for c in injected.masked]
    assert bands == [BAND_SIGNAL, BAND_OFF, BAND_SIGNAL, BAND_OFF]
    slots = [c.time_slot for c in injected.masked]
    assert slots == [0, 0, 1, 1]
    assert injected.signature is package.signature


def test_delay_inject_layout():
    registry = QuantumRegistry()
    package = _tiny_package()
    decoys = adv.make_decoy_set(2, registry)
    injected = adv.delay_photon_inject(package, decoys)
    assert all(c.band == BAND_SIGNAL for c in injected.masked)
    assert [c.time_slot for c in injected.masked] == [0, 0, 1, 1]


def test_inject_size_mismatch():
    registry = QuantumRegistry()
    package = _tiny_package()
    with pytest.raises(SizeMismatch):
        adv.ipe_inject(package, adv.make_decoy_set(3, registry))


def test_ipe_run_without_defenses_leaves_no_alarm_events():
    result = run_scenario(scenario("ipe"), 3, 43, 0)
    kinds = {e["kind"] for e in result.transcript.events}
    assert "defense-alarm" not in kinds and "defense-screen" not in kinds


# --- key extraction -----------------------------------------------------------


@pytest.mark.parametrize("x,z", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_extraction_maps_pauli_to_bits(x, z):
    # 4-dim amplitude oracle: the keyed Pauli turns phi+ into the Bell
    # state encoded (x, z), so the measurement must return exactly that
    registry = QuantumRegistry()
    decoys = adv.make_decoy_set(1, registry)
    probe, keeper = decoys.pairs[0]
    transformed = oracles.np.kron(oracles.pauli_matrix(x, z), oracles.I2) @ \
        oracles.BELL_VECS["phi-plus"]
    predicted = [tok for tok, p in oracles.bell_probs(transformed).items() if p > 0.5]
    assert predicted == [BellOutcome.from_bits(x, z).token]

    registry.apply_paulis([probe], [x], [z])
    bits = adv.ipe_extract((probe,), decoys, registry, np.random.default_rng(0))
    assert bits == (x, z)


def test_extraction_missing_decoy():
    registry = QuantumRegistry()
    decoys = adv.make_decoy_set(2, registry)
    with pytest.raises(MissingDecoy):
        adv.ipe_extract((), decoys, registry, np.random.default_rng(0))


def test_intercept_removes_probes_only():
    registry = QuantumRegistry()
    package = _tiny_package()
    decoys = adv.make_decoy_set(2, registry)
    injected = adv.ipe_inject(package, decoys)
    payload = proto.CipherPayload(masked=injected.masked, signature=injected.signature)
    cleaned, captured = adv.intercept_decoys(payload, decoys)
    assert captured == ("d1_1", "d1_2")
    assert [c.id for c in cleaned.masked] == ["p1", "p2"]
    assert cleaned.masked is package.masked  # the first part, handed back
    # a stream that does not keep the probes as its second part has none
    # to hand over: a rebuilt one, or one that never carried them
    rebuilt = proto.CarrierStream(reversed(injected.masked))
    for masked in (rebuilt, package.masked):
        with pytest.raises(MissingDecoy):
            adv.intercept_decoys(
                proto.CipherPayload(masked=masked, signature=injected.signature), decoys)


@pytest.mark.parametrize("inject", [adv.ipe_inject, adv.delay_photon_inject])
def test_a_probe_picks_up_its_slots_pauli_through_its_own_part(inject, monkeypatch):
    # the probes sit in the decoy family, not in the message family whose
    # slots they share: the injected stream is made of the two columns, and
    # the verifier keys each by its own slots, one lookup per column
    n = 3
    rng = np.random.default_rng(11)
    registry = QuantumRegistry()
    spec = proto.random_message_spec(n, rng, generic_margin=0.05)
    keys = proto.setup_keys(n, rng)
    alice_labels, _ = proto.distribute_bell_pairs(n, registry)
    package, _, _ = proto.alice_sign(spec, keys.signer, rng, registry, alice_labels)
    decoys = adv.make_decoy_set(n, registry)
    plan, masked = proto.slot_plan(n), package.masked
    package = inject(package, decoys)
    first, probes = package.masked.parts
    assert first is masked and probes.labels == plan.probes
    assert probes.slots.tolist() == masked.slots.tolist()
    assert package.masked.labels == tuple(chain.from_iterable(zip(masked.labels, plan.probes)))
    with pytest.raises(LabelMismatch):  # the joined stream is no column
        registry.stack(package.masked.labels)
    looked_up = store_layout.record_lookups(monkeypatch)
    payload = proto.bob_forward(package, keys.verifier, registry)
    assert looked_up == [plan.masked.labels, plan.probes, plan.signature.labels]
    _, captured = adv.intercept_decoys(payload, decoys)
    assert adv.ipe_extract(captured, decoys, registry, rng) == keys.verifier.bits[:2 * n]


@pytest.mark.parametrize("token", ["ipe", "delay-photon"])
def test_extraction_soundness(token):
    for trial in range(30):
        result = run_scenario(scenario(token), 4, 47, trial)
        assert result.extraction_matches is True
        assert result.extraction_bits == result.keys.verifier.bits[:8]


def test_ipe_stealth_matches_honest_run():
    for trial in range(10):
        honest = run_scenario(scenario("honest"), 4, 53, trial)
        attacked = run_scenario(scenario("ipe"), 4, 53, trial)
        assert attacked.record.canonical_bytes() == honest.record.canonical_bytes()
        assert attacked.checks == honest.checks
        assert attacked.genuine_compare == honest.genuine_compare
