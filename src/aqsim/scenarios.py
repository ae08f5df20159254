"""End-to-end seeded runs: honest flow, every attack, optional screening.

Each trial derives four independent rng streams (message, keys, signing,
attack) from ``SeedSequence([seed, trial])``, so attack-side draws never
shift the honest draws. That alignment is what makes matched-seed
comparisons meaningful: the arbiter's record of a tampered run is
byte-identical to the honest run's, because nothing he sees depends on
what the attacker touched.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adversary as adv
from . import protocol as proto
from . import statevector as sv
from .adversary import Scenario, ScenarioVariant
from .defense import DefenseConfig, screen
from .protocol import (
    CLAIM_FOLLOWED,
    Claim,
    CompareReport,
    CompareResult,
    MessageSpec,
    PublicBoard,
    QuantumRegistry,
    Transcript,
    TrentRecord,
    checks_jsonable,
)
from .qotp import ROLE_EXTRACTED, KeyBits

GENERIC_MARGIN = 0.05  # keeps sampled qubits away from Pauli eigenstates
STATUS_ATTACK_DETECTED = "attack-detected"


@dataclass(frozen=True)
class RngStreams:
    message: np.random.Generator
    keys: np.random.Generator
    sign: np.random.Generator
    attack: np.random.Generator


def rng_streams(seed: int, trial: int) -> RngStreams:
    """Per-trial splittable streams from SeedSequence([seed, trial])."""
    children = np.random.SeedSequence(entropy=[seed, trial]).spawn(4)
    return RngStreams(*(np.random.default_rng(c) for c in children))


@dataclass
class RunResult:
    """Everything one trial produced, including harness-only private data."""

    transcript: Transcript
    checks: dict
    verdict: str | None
    alarms: tuple[str, ...]
    record: TrentRecord | None
    board: PublicBoard
    genuine_compare: str | None
    compare_report: CompareReport | None
    extraction_bits: tuple[int, ...] | None
    extraction_matches: bool | None
    bell_prob_max_dev: float
    claims: tuple[Claim, ...]
    published_pad: KeyBits | None
    recovered_fidelities: tuple[float, ...] | None
    message: MessageSpec
    keys: proto.ProtocolKeys
    true_pad: KeyBits

    def transcript_bytes(self) -> bytes:
        return self.transcript.to_bytes()


def _carrier_meta(carriers) -> list[dict]:
    return [c.meta() for c in carriers]


def _screen_point(
    transcript: Transcript,
    actor: str,
    point: str,
    carriers,
    config: DefenseConfig,
) -> tuple[str, ...]:
    """Run enabled devices at a receive point. Returns fired device tokens."""
    if not config.any_enabled:
        return ()
    report = screen(carriers, config)
    transcript.log(
        actor,
        "defense-screen",
        {"point": point, "devices": config.tokens(), "flagged": len(report.flagged)},
    )
    if not report.flagged:
        return ()
    transcript.log(
        actor,
        "defense-alarm",
        {
            "point": point,
            "flagged": [
                {"device": device, "id": c.id, "band": c.band, "slot": c.time_slot}
                for device, c in report.flagged
            ],
        },
    )
    fired = []
    for device, _ in report.flagged:
        if device not in fired:
            fired.append(device)
    return tuple(fired)


def run_scenario(
    scenario: Scenario,
    n: int,
    seed: int,
    trial: int = 0,
    defenses: DefenseConfig = DefenseConfig(),
    message: MessageSpec | None = None,
    forced_pad: KeyBits | None = None,
) -> RunResult:
    """Execute one seeded trial of the chosen scenario."""
    streams = rng_streams(seed, trial)
    transcript = Transcript(scenario.token, n, seed, defenses.tokens())
    registry = QuantumRegistry()
    board = PublicBoard()
    variant = scenario.variant

    spec = message if message is not None else proto.random_message_spec(
        n, streams.message, generic_margin=GENERIC_MARGIN
    )
    keys = proto.setup_keys(n, streams.keys)
    transcript.log(
        "trent",
        "setup",
        {
            "n": n,
            "signer_key_bits": len(keys.signer),
            "verifier_key_bits": len(keys.verifier),
            "peer_key_bits": len(keys.peer),
        },
    )

    alice_labels, bob_labels = proto.distribute_bell_pairs(n, registry)
    transcript.log(
        "alice",
        "send",
        {
            "channel": "alice->bob",
            "what": "entangled-halves",
            "carriers": [
                {"id": label, "band": proto.BAND_SIGNAL, "slot": i}
                for i, label in enumerate(bob_labels)
            ],
        },
    )

    package, pad, signer_private = proto.alice_sign(
        spec, keys.signer, streams.sign, registry, alice_labels, forced_pad=forced_pad
    )
    transcript.log(
        "alice",
        "measurement",
        {
            "what": "bell-projection",
            "probabilities": [list(p) for p in signer_private.outcome_probabilities],
            "outcomes": [o.token for o in package.bell_results],
        },
    )

    decoys = None
    if variant is ScenarioVariant.ALICE_TAMPERS:
        package = adv.alice_tamper_outcomes(package, scenario.tamper_indices)
        transcript.log(
            "alice",
            "attack",
            {"action": "tamper-bell-results", "indices": list(scenario.tamper_indices)},
        )
    elif variant is ScenarioVariant.IPE:
        decoys = adv.make_decoy_set(n, registry)
        package = adv.ipe_inject(package, decoys)
        transcript.log(
            "alice", "attack", {"action": "inject-decoys", "band": proto.BAND_OFF, "count": n}
        )
    elif variant is ScenarioVariant.DELAY_PHOTON:
        decoys = adv.make_decoy_set(n, registry)
        package = adv.delay_photon_inject(package, decoys)
        transcript.log(
            "alice", "attack", {"action": "inject-decoys", "band": proto.BAND_SIGNAL, "count": n}
        )

    transcript.log(
        "alice",
        "send",
        {
            "channel": "alice->bob",
            "what": "signature-package",
            "masked": _carrier_meta(package.masked),
            "signature": _carrier_meta(package.signature),
            "bell_results": [o.token for o in package.bell_results],
        },
    )

    if variant is ScenarioVariant.EVE_DISTURBS:
        package = adv.eve_disturb_outcomes(package, scenario.tamper_indices, streams.attack)
        transcript.log(
            "eve",
            "attack",
            {"action": "disturb-bell-results", "indices": list(scenario.tamper_indices)},
        )

    def aborted(alarms: tuple[str, ...]) -> RunResult:
        checks = checks_jsonable(None, None, None, None)
        transcript.finish(board, STATUS_ATTACK_DETECTED, checks)
        return RunResult(
            transcript=transcript,
            checks=checks,
            verdict=STATUS_ATTACK_DETECTED,
            alarms=alarms,
            record=None,
            board=board,
            genuine_compare=None,
            compare_report=None,
            extraction_bits=None,
            extraction_matches=None,
            bell_prob_max_dev=signer_private.max_probability_deviation,
            claims=(),
            published_pad=None,
            recovered_fidelities=None,
            message=spec,
            keys=keys,
            true_pad=pad,
        )

    fired = _screen_point(
        transcript, "bob", "bob-receive",
        package.masked + package.signature, defenses,
    )
    if fired:
        return aborted(fired)

    payload = proto.bob_forward(package, keys.verifier, registry)
    transcript.log(
        "bob",
        "send",
        {
            "channel": "bob->trent",
            "what": "ciphertext",
            "masked": _carrier_meta(payload.masked),
            "signature": _carrier_meta(payload.signature),
        },
    )

    extraction_bits = None
    extraction_matches = None
    if decoys is not None:
        payload, captured = adv.intercept_decoys(payload, decoys)
        extraction_bits = adv.ipe_extract(captured, decoys, registry, streams.attack)
        consumed = keys.verifier.bits[: 2 * n]
        extraction_matches = extraction_bits == consumed
        transcript.log(
            "alice",
            "attack",
            {
                "action": "intercept-and-extract",
                "captured": list(captured),
                "extracted": KeyBits(extraction_bits, ROLE_EXTRACTED).to_jsonable(),
                "matches_verifier_bits": extraction_matches,
            },
        )

    fired = _screen_point(
        transcript, "trent", "trent-receive",
        payload.masked + payload.signature, defenses,
    )
    if fired:
        return aborted(fired)

    returned, record = proto.trent_verify(payload, keys.signer, keys.verifier, registry)
    transcript.log("trent", "arbiter-record", record.to_jsonable())
    transcript.log(
        "trent",
        "send",
        {
            "channel": "trent->bob",
            "what": "ciphertext",
            "masked": _carrier_meta(returned.masked),
            "signature": _carrier_meta(returned.signature),
            "verdict_carrier": returned.verdict_carrier.meta(),
        },
    )

    report = proto.bob_verify_and_compare(
        returned, package.bell_results, bob_labels, keys.verifier, registry
    )
    transcript.log(
        "bob",
        "decision",
        {
            "action": "verify-and-compare",
            "verify_bit": report.verify_bit,
            "compare": report.result.value,
            "per_qubit": list(report.per_qubit),
        },
    )

    claims: tuple[Claim, ...] = ()
    verdict: str | None = None
    published: KeyBits | None = None
    fidelities = None
    signature_valid = None

    def arbitration(bob_claim: Claim) -> tuple[tuple[Claim, ...], str]:
        alice_claim = Claim("alice", CLAIM_FOLLOWED)
        transcript.log("bob", "claim", {"statement": bob_claim.statement})
        transcript.log("alice", "claim", {"statement": alice_claim.statement})
        outcome = proto.arbitrate(record, alice_claim, bob_claim)
        transcript.log("trent", "verdict", {"verdict": outcome.value})
        return (alice_claim, bob_claim), outcome.value

    if variant is ScenarioVariant.BOB_LIES:
        bob_claim = adv.bob_dos_negate(
            adv.RunState(phase="compared", genuine_compare=report.result)
        )
        claims, verdict = arbitration(bob_claim)
    elif report.result is CompareResult.MISMATCH:
        claims, verdict = arbitration(Claim("bob", proto.CLAIM_TELEPORT_MISMATCH))
    elif report.result is CompareResult.REJECT:
        bob_claim = Claim("bob", proto.CLAIM_TELEPORT_MISMATCH)
        alice_claim = Claim("alice", CLAIM_FOLLOWED)
        claims = (alice_claim, bob_claim)
        verdict = proto.arbitrate(record, alice_claim, bob_claim).value
        transcript.log("trent", "verdict", {"verdict": verdict})
    else:
        transcript.log("bob", "decision", {"action": "request-pad"})
        if variant is ScenarioVariant.ALICE_FALSE_PAD:
            published = adv.alice_publish_false_pad(board, pad, streams.attack)
        else:
            published = pad
            proto.publish_pad(board, pad)
        transcript.log("alice", "board-post", {"value": published.to_jsonable()})

        masked_states = registry.sequence([c.payload for c in payload.masked])
        recovered = proto.bob_recover(masked_states, published)
        transcript.log("bob", "decision", {"action": "recover-message"})
        fidelities = tuple(
            sv.fidelity(state, spec.qubit(i, state.labels[0]))
            for i, state in enumerate(recovered)
        )
        signature_states = registry.sequence([c.payload for c in payload.signature])
        signature_valid = proto.verify_signature_pair(
            signature_states, published, spec, keys.signer
        )
        verdict = proto.Verdict.NO_DISPUTE.value

    checks = checks_jsonable(
        record.verified,
        report.result.value,
        min(fidelities) if fidelities is not None else None,
        signature_valid,
    )
    transcript.finish(board, verdict, checks)
    return RunResult(
        transcript=transcript,
        checks=checks,
        verdict=verdict,
        alarms=(),
        record=record,
        board=board,
        genuine_compare=report.result.value,
        compare_report=report,
        extraction_bits=extraction_bits,
        extraction_matches=extraction_matches,
        bell_prob_max_dev=signer_private.max_probability_deviation,
        claims=claims,
        published_pad=published,
        recovered_fidelities=fidelities,
        message=spec,
        keys=keys,
        true_pad=pad,
    )
