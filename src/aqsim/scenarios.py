"""End-to-end seeded runs: honest flow, every attack, optional screening.

Each trial derives four independent rng streams (message, keys, signing,
attack) from ``SeedSequence([seed, trial])``, so attack-side draws never
shift the honest draws. That alignment is what makes matched-seed
comparisons meaningful: the arbiter's record of a tampered run is
byte-identical to the honest run's, because nothing he sees depends on
what the attacker touched.

``SCENARIOS`` is the one place that says what each scenario does. Its entry
holds the scenario's attack steps at the flow's fixed points (after-sign,
in-flight, after-forward, claim, publish) and its expected-outcome checks.
``run_scenario`` walks the honest flow once and calls the chosen entry's
steps at those points.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import adversary as adv
from . import protocol as proto
from . import qotp
from . import statevector as sv
from .adversary import Scenario, ScenarioVariant
from .defense import DEVICE_FILTER, DEVICE_PNS, DefenseConfig, screen
from .jsonutil import render_bools, render_float_rows, render_strings
from .protocol import (
    CLAIM_FOLLOWED, CLAIM_TELEPORT_MISMATCH, CipherPayload, Claim, CompareReport, CompareResult,
    MessageSpec, PublicBoard, QuantumRegistry, SignaturePackage, Transcript, TrentRecord,
    Verdict, checks_jsonable,
)
from .qotp import ROLE_EXTRACTED, KeyBits

GENERIC_MARGIN = 0.05  # keeps sampled qubits away from Pauli eigenstates
STATUS_ATTACK_DETECTED = "attack-detected"
HONEST_FIDELITY_FLOOR = 1.0 - 1e-9
DEGRADED_FIDELITY_CEILING = 1.0 - 1e-6


class RngStreams:
    """Per-trial splittable streams: the children ``SeedSequence([seed, trial]).spawn(4)``,
    each built directly from its ``spawn_key``. Only ``eve-disturb``,
    ``alice-false-pad`` and the Trojan extraction draw from ``attack``, so it
    is built on first use."""

    def __init__(self, seed: int, trial: int):
        self._entropy = [seed, trial]
        self.message, self.keys, self.sign = map(self._child, range(3))

    def _child(self, i: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(entropy=self._entropy, spawn_key=(i,)))

    @cached_property
    def attack(self) -> np.random.Generator:
        return self._child(3)


def rng_streams(seed: int, trial: int) -> RngStreams:
    return RngStreams(seed, trial)


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


@dataclass
class Trial:
    """The live state of one trial: what the flow has made so far.

    Attack steps read it and replace what they touch, the way an attacker
    takes a transmission off the channel and passes something else on.
    """

    scenario: Scenario
    streams: RngStreams
    transcript: Transcript
    registry: QuantumRegistry
    keys: proto.ProtocolKeys
    message: MessageSpec
    bob_labels: tuple
    pad: KeyBits
    package: SignaturePackage
    board: PublicBoard
    payload: CipherPayload | None = None
    record: TrentRecord | None = None
    report: CompareReport | None = None
    decoys: adv.DecoySet | None = None
    extraction_bits: tuple[int, ...] | None = None
    extraction_matches: bool | None = None
    claims: tuple[Claim, ...] = ()
    published: KeyBits | None = None
    fidelities: tuple[float, ...] | None = None
    signature_valid: bool | None = None
    verdict: str | None = None


# --- attack steps -----------------------------------------------------------


def _no_step(trial: Trial) -> None:
    """Nothing happens at this point of the scenario."""


def _tamper(trial: Trial) -> None:
    indices = trial.scenario.tamper_indices
    trial.package = adv.alice_tamper_outcomes(trial.package, indices)
    trial.transcript.log("alice", "attack",
                         {"action": "tamper-bell-results", "indices": list(indices)})


def _disturb(trial: Trial) -> None:
    indices = trial.scenario.tamper_indices
    trial.package = adv.eve_disturb_outcomes(trial.package, indices, trial.streams.attack)
    trial.transcript.log("eve", "attack",
                         {"action": "disturb-bell-results", "indices": list(indices)})


def _inject_decoys(inject, band: str) -> Callable[[Trial], None]:
    def step(trial: Trial) -> None:
        trial.decoys = adv.make_decoy_set(trial.message.n, trial.registry)
        trial.package = inject(trial.package, trial.decoys)
        trial.transcript.log("alice", "attack",
                             {"action": "inject-decoys", "band": band, "count": trial.message.n})
    return step


def _intercept_and_extract(trial: Trial) -> None:
    trial.payload, captured = adv.intercept_decoys(trial.payload, trial.decoys)
    bits = adv.ipe_extract(captured, trial.decoys, trial.registry, trial.streams.attack)
    trial.extraction_bits = bits
    trial.extraction_matches = bits == trial.keys.verifier.bits[: 2 * trial.message.n]
    trial.transcript.log("alice", "attack", {
        "action": "intercept-and-extract", "captured": list(captured),
        "extracted": KeyBits(bits, ROLE_EXTRACTED).to_jsonable(),
        "matches_verifier_bits": trial.extraction_matches,
    })


def _claim_mismatch(trial: Trial) -> Claim | None:
    """The honest verifier disputes exactly when the comparison did not match."""
    if trial.report.result is CompareResult.MATCH_OK:
        return None
    return Claim("bob", CLAIM_TELEPORT_MISMATCH)


def _negate_match(trial: Trial) -> Claim:
    return adv.bob_dos_negate(adv.RunState(adv.Phase.COMPARED, trial.report.result))


def _publish_pad(trial: Trial) -> KeyBits:
    proto.publish_pad(trial.board, trial.pad)
    return trial.pad


def _publish_false_pad(trial: Trial) -> KeyBits:
    return adv.alice_publish_false_pad(trial.board, trial.pad, trial.streams.attack)


# --- expected outcomes ------------------------------------------------------


def _fidelity(result: RunResult) -> float | None:
    return result.checks["recover_fidelity_min"]


# Every named expected-outcome check, as a predicate on a RunResult.
CHECKS: dict[str, Callable[[RunResult], bool]] = {
    "extraction-exact": lambda r: r.extraction_matches is True,
    "arbiter-verified": lambda r: r.checks["V"] == 1,
    "teleport-compare-match": lambda r: r.checks["v5"] == CompareResult.MATCH_OK.value,
    "teleport-compare-mismatch": lambda r: r.checks["v5"] == CompareResult.MISMATCH.value,
    "genuine-compare-match": lambda r: r.genuine_compare == CompareResult.MATCH_OK.value,
    "recover-fidelity":
        lambda r: _fidelity(r) is not None and _fidelity(r) >= HONEST_FIDELITY_FLOOR,
    "recover-fidelity-degraded":
        lambda r: _fidelity(r) is not None and _fidelity(r) < DEGRADED_FIDELITY_CEILING,
    "signature-valid": lambda r: r.checks["signature_valid"] is True,
    "signature-invalid-under-published-pad": lambda r: r.checks["signature_valid"] is False,
    "verdict-no-dispute": lambda r: r.verdict == Verdict.NO_DISPUTE.value,
    "verdict-inconclusive": lambda r: r.verdict == Verdict.INCONCLUSIVE.value,
    "board-empty": lambda r: len(r.board.entries) == 0,
    "no-alarms": lambda r: not r.alarms,
}

_HONEST = ("arbiter-verified", "teleport-compare-match", "recover-fidelity", "signature-valid",
           "verdict-no-dispute", "no-alarms")
_MISMATCH_DISPUTE = ("arbiter-verified", "teleport-compare-mismatch", "verdict-inconclusive",
                     "board-empty", "no-alarms")


@dataclass(frozen=True)
class ScenarioEntry:
    """One scenario: its steps at the flow's fixed points and its expected outcome.

    Each step defaults to the honest flow. ``expect`` names the ``CHECKS``
    a run must pass. ``caught_by`` names the screening devices that must
    catch the scenario's probes: with one of them enabled, the run must
    abort instead. ``tamper_indices`` is the default set of 1-based Bell
    results the scenario corrupts; () means it takes none.
    """

    expect: tuple[str, ...]
    after_sign: Callable[[Trial], None] = _no_step
    in_flight: Callable[[Trial], None] = _no_step
    after_forward: Callable[[Trial], None] = _no_step
    claim: Callable[[Trial], Claim | None] = _claim_mismatch
    publish: Callable[[Trial], KeyBits] = _publish_pad
    caught_by: tuple[str, ...] = ()
    tamper_indices: tuple[int, ...] = ()

    def expectations(self, result: RunResult, defenses: DefenseConfig) -> dict[str, bool]:
        if any(device in defenses.tokens() for device in self.caught_by):
            return {
                "alarm-raised": any(d in result.alarms for d in self.caught_by),
                "run-aborted": result.verdict == STATUS_ATTACK_DETECTED
                and result.checks["V"] is None,
            }
        return {name: CHECKS[name](result) for name in self.expect}


SCENARIOS: dict[ScenarioVariant, ScenarioEntry] = {
    ScenarioVariant.HONEST: ScenarioEntry(expect=_HONEST),
    ScenarioVariant.BOB_LIES: ScenarioEntry(
        claim=_negate_match,
        expect=("arbiter-verified", "genuine-compare-match", "verdict-inconclusive",
                "board-empty", "no-alarms")),
    ScenarioVariant.ALICE_TAMPERS: ScenarioEntry(
        after_sign=_tamper, tamper_indices=(1,), expect=_MISMATCH_DISPUTE),
    ScenarioVariant.EVE_DISTURBS: ScenarioEntry(
        in_flight=_disturb, tamper_indices=(1,), expect=_MISMATCH_DISPUTE),
    ScenarioVariant.ALICE_FALSE_PAD: ScenarioEntry(
        publish=_publish_false_pad,
        expect=("arbiter-verified", "teleport-compare-match",
                "signature-invalid-under-published-pad", "recover-fidelity-degraded",
                "verdict-no-dispute", "no-alarms")),
    ScenarioVariant.IPE: ScenarioEntry(  # the probe is off band and shares its slot
        after_sign=_inject_decoys(adv.ipe_inject, proto.BAND_OFF),
        after_forward=_intercept_and_extract,
        caught_by=(DEVICE_FILTER, DEVICE_PNS), expect=("extraction-exact",) + _HONEST),
    ScenarioVariant.DELAY_PHOTON: ScenarioEntry(
        after_sign=_inject_decoys(adv.delay_photon_inject, proto.BAND_SIGNAL),
        after_forward=_intercept_and_extract,
        caught_by=(DEVICE_PNS,), expect=("extraction-exact",) + _HONEST),
}


# --- the flow ---------------------------------------------------------------


def _screen_point(
    transcript: Transcript, actor: str, point: str, carriers, config: DefenseConfig
) -> tuple[str, ...]:
    """Run enabled devices at a receive point. Returns fired device tokens."""
    if not config.any_enabled:
        return ()
    report = screen(carriers, config)
    transcript.log(actor, "defense-screen",
                   {"point": point, "devices": config.tokens(), "flagged": len(report.flagged)})
    if not report.flagged:
        return ()
    transcript.log(actor, "defense-alarm", {
        "point": point,
        "flagged": [{"device": device, "id": c.id, "band": c.band, "slot": c.time_slot}
                    for device, c in report.flagged],
    })
    return tuple(dict.fromkeys(device for device, _ in report.flagged))


def _deliver(trial: Trial, entry: ScenarioEntry, defenses: DefenseConfig) -> tuple[str, ...]:
    """The flow from the signer's send to the verdict, with the entry's steps.

    Returns the alarms that aborted the run, or () when it ran to the end.
    """
    transcript, registry, keys = trial.transcript, trial.registry, trial.keys

    entry.after_sign(trial)
    transcript.log("alice", "send", {
        "channel": "alice->bob", "what": "signature-package",
        "masked": trial.package.masked.rendered, "signature": trial.package.signature.rendered,
        "bell_results": render_strings([o.token for o in trial.package.bell_results]),
    })
    entry.in_flight(trial)
    fired = _screen_point(transcript, "bob", "bob-receive",
                          trial.package.masked + trial.package.signature, defenses)
    if fired:
        return fired

    trial.payload = proto.bob_forward(trial.package, keys.verifier, registry)
    transcript.log("bob", "send", {
        "channel": "bob->trent", "what": "ciphertext",
        "masked": trial.payload.masked.rendered, "signature": trial.payload.signature.rendered,
    })
    entry.after_forward(trial)
    fired = _screen_point(transcript, "trent", "trent-receive",
                          trial.payload.masked + trial.payload.signature, defenses)
    if fired:
        return fired

    returned, trial.record = proto.trent_verify(trial.payload, keys.signer, keys.verifier,
                                                registry)
    transcript.log("trent", "arbiter-record", trial.record.to_jsonable())
    transcript.log("trent", "send", {
        "channel": "trent->bob", "what": "ciphertext",
        "masked": returned.masked.rendered, "signature": returned.signature.rendered,
        "verdict_carrier": returned.verdict_carrier.meta(),
    })
    report = trial.report = proto.bob_verify_and_compare(
        returned, trial.package.bell_results, trial.bob_labels, keys.verifier, registry)
    transcript.log("bob", "decision", {
        "action": "verify-and-compare", "verify_bit": report.verify_bit,
        "compare": report.result.value, "per_qubit": render_bools(report.per_qubit),
    })

    bob_claim = entry.claim(trial)
    if bob_claim is not None:
        alice_claim = Claim("alice", CLAIM_FOLLOWED)
        transcript.log("bob", "claim", {"statement": bob_claim.statement})
        transcript.log("alice", "claim", {"statement": alice_claim.statement})
        trial.claims = (alice_claim, bob_claim)
        trial.verdict = proto.arbitrate(trial.record, alice_claim, bob_claim).value
        transcript.log("trent", "verdict", {"verdict": trial.verdict})
        return ()

    transcript.log("bob", "decision", {"action": "request-pad"})
    published = trial.published = entry.publish(trial)
    transcript.log("alice", "board-post", {"value": published.to_jsonable()})
    recovered = qotp.mask_rows(proto._qubit_rows(registry, trial.payload.masked.labels),
                               published, inverse=True)
    transcript.log("bob", "decision", {"action": "recover-message"})
    trial.fidelities = tuple(sv.fidelity_rows(recovered, trial.message.amps))
    trial.signature_valid = proto.verify_signature_rows(
        proto._qubit_rows(registry, trial.payload.signature.labels), published,
        trial.message, keys.signer)
    trial.verdict = Verdict.NO_DISPUTE.value
    return ()


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

    spec = message if message is not None else proto.random_message_spec(
        n, streams.message, generic_margin=GENERIC_MARGIN)
    keys = proto.setup_keys(n, streams.keys)
    transcript.log("trent", "setup", {
        "n": n, "signer_key_bits": len(keys.signer),
        "verifier_key_bits": len(keys.verifier), "peer_key_bits": len(keys.peer),
    })
    alice_labels, bob_labels = proto.distribute_bell_pairs(n, registry)
    transcript.log("alice", "send", {
        "channel": "alice->bob", "what": "entangled-halves",
        "carriers": proto.slot_plan(n).halves.rendered,
    })
    package, pad, signer_private = proto.alice_sign(
        spec, keys.signer, streams.sign, registry, alice_labels, forced_pad=forced_pad)
    transcript.log("alice", "measurement", {
        "what": "bell-projection",
        "probabilities": render_float_rows(signer_private.outcome_probabilities, registry.memo),
        "outcomes": [o.token for o in package.bell_results],
    })

    run = Trial(scenario, streams, transcript, registry, keys, spec, bob_labels, pad,
                package, PublicBoard())
    alarms = _deliver(run, SCENARIOS[scenario.variant], defenses)
    if alarms:
        run.verdict = STATUS_ATTACK_DETECTED
    record, report = run.record, run.report
    checks = checks_jsonable(
        record.verified if record is not None else None,
        report.result.value if report is not None else None,
        min(run.fidelities) if run.fidelities is not None else None,
        run.signature_valid,
    )
    transcript.finish(run.board, run.verdict, checks)
    return RunResult(
        transcript=transcript, checks=checks, verdict=run.verdict, alarms=alarms,
        record=record, board=run.board,
        genuine_compare=checks["v5"],
        compare_report=report, extraction_bits=run.extraction_bits,
        extraction_matches=run.extraction_matches,
        bell_prob_max_dev=signer_private.max_probability_deviation, claims=run.claims,
        published_pad=run.published, recovered_fidelities=run.fidelities, message=spec,
        keys=keys, true_pad=pad,
    )
