"""Traced replay of `aqsim run`: per-layer time without touching `src/`.

``traced_invocation`` does what ``cli.main`` does for one argv, but drives
each trial through the layers' public functions in the order
``scenarios.run_scenario`` calls them and times every call from here.
Nothing in the package is patched. Each traced trial is then run once more
through ``run_scenario`` itself, and the replay must agree with it on the
verdict, the checks block, every Bell result and the arbiter record bytes.

Calls that the flow does not make (the statevector and qotp primitives and
a second payload digest) are timed after the invocation on the trial's own
objects, with their results thrown away and a separate rng, so they do not
count toward the traced invocation's wall time. A layer that a workload's
flow never calls (the attack hooks and screening on ``honest-n256``)
reports 0 us.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

from aqsim import adversary as adv
from aqsim import cli
from aqsim import protocol as proto
from aqsim import qotp
from aqsim import scenarios
from aqsim import statevector as sv
from aqsim.adversary import ScenarioVariant
from aqsim.defense import DefenseConfig, screen
from aqsim.protocol import CLAIM_FOLLOWED, Claim, CompareResult, PublicBoard, QuantumRegistry
from aqsim.qotp import KeyBits

TIMED_LAYERS = (
    "scenarios.rng_streams", "scenarios.run_scenario",
    "protocol.random_message_spec", "protocol.setup_keys", "protocol.distribute_bell_pairs",
    "protocol.alice_sign", "protocol.bob_forward", "protocol.trent_verify",
    "protocol.bob_verify_and_compare", "protocol.bob_recover", "protocol.verify_signature_pair",
    "protocol.digest",
    "adversary.inject", "adversary.intercept_decoys", "adversary.ipe_extract", "defense.screen",
    "jsonutil.transcript_bytes",
    "cli.parse_config", "cli.evaluate_expectations", "cli.render_summary", "cli.write_transcript",
    "statevector.PureState", "statevector.apply_pauli", "statevector.tensor",
    "statevector.bell_measure", "statevector.equal_up_to_phase", "qotp.encrypt",
)
COUNTERS = (
    "statevector.bell_measurements", "protocol.carriers_sent",
    "defense.carriers_screened", "jsonutil.transcript_bytes",
)
PRIMITIVE_REPS = 5  # timed calls per primitive per trial


class Spans:
    """Per-call durations (us) by layer and per-trial work counters."""

    def __init__(self):
        self.us = defaultdict(list)
        self.counts = defaultdict(int)
        self.trials = 0

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.us[layer].append((time.perf_counter() - t0) * 1e6)
        return out

    def metrics(self, scale: float) -> dict:
        """Median us per call, times ``scale``, and mean counts per trial.

        A layer that was never called reports 0.
        """
        out = {f"{layer}.us": {"value": statistics.median(self.us[layer] or [0.0]) * scale,
                               "unit": "us"}
               for layer in TIMED_LAYERS}
        for name in COUNTERS:
            out[name] = {"value": self.counts[name] / self.trials,
                         "unit": "B" if name == "jsonutil.transcript_bytes" else "count"}
        return out


def _carrier_meta(carriers) -> list[dict]:
    return [c.meta() for c in carriers]


def _screen_point(spans, transcript, actor, point, carriers, config) -> tuple[str, ...]:
    """``scenarios._screen_point`` with the device call timed."""
    if not config.any_enabled:
        return ()
    spans.counts["defense.carriers_screened"] += len(carriers)
    report = spans.call("defense.screen", screen, carriers, config)
    transcript.log(actor, "defense-screen",
                   {"point": point, "devices": config.tokens(), "flagged": len(report.flagged)})
    if not report.flagged:
        return ()
    transcript.log(actor, "defense-alarm", {
        "point": point,
        "flagged": [{"device": device, "id": c.id, "band": c.band, "slot": c.time_slot}
                    for device, c in report.flagged],
    })
    fired = []
    for device, _ in report.flagged:
        if device not in fired:
            fired.append(device)
    return tuple(fired)


def replay(spans: Spans, scenario, n: int, seed: int, trial: int, defenses: DefenseConfig):
    """``scenarios.run_scenario`` step by step, each layer call timed.

    Returns the RunResult, the Bell results and the objects the off-path
    timings reuse.
    """
    streams = spans.call("scenarios.rng_streams", scenarios.rng_streams, seed, trial)
    transcript = proto.Transcript(scenario.token, n, seed, defenses.tokens())
    registry = QuantumRegistry()
    board = PublicBoard()
    variant = scenario.variant

    spec = spans.call("protocol.random_message_spec", proto.random_message_spec,
                      n, streams.message, generic_margin=scenarios.GENERIC_MARGIN)
    keys = spans.call("protocol.setup_keys", proto.setup_keys, n, streams.keys)
    transcript.log("trent", "setup", {
        "n": n, "signer_key_bits": len(keys.signer),
        "verifier_key_bits": len(keys.verifier), "peer_key_bits": len(keys.peer),
    })
    alice_labels, bob_labels = spans.call(
        "protocol.distribute_bell_pairs", proto.distribute_bell_pairs, n, registry)
    transcript.log("alice", "send", {
        "channel": "alice->bob", "what": "entangled-halves",
        "carriers": [{"id": label, "band": proto.BAND_SIGNAL, "slot": i}
                     for i, label in enumerate(bob_labels)],
    })
    package, pad, signer_private = spans.call(
        "protocol.alice_sign", proto.alice_sign, spec, keys.signer, streams.sign, registry,
        alice_labels)
    bell_results = tuple(o.token for o in package.bell_results)
    spans.counts["statevector.bell_measurements"] += n
    transcript.log("alice", "measurement", {
        "what": "bell-projection",
        "probabilities": [list(p) for p in signer_private.outcome_probabilities],
        "outcomes": list(bell_results),
    })

    decoys = None
    if variant is ScenarioVariant.ALICE_TAMPERS:
        package = adv.alice_tamper_outcomes(package, scenario.tamper_indices)
        transcript.log("alice", "attack", {"action": "tamper-bell-results",
                                           "indices": list(scenario.tamper_indices)})
    elif variant in (ScenarioVariant.IPE, ScenarioVariant.DELAY_PHOTON):
        inject, band = ((adv.ipe_inject, proto.BAND_OFF) if variant is ScenarioVariant.IPE
                        else (adv.delay_photon_inject, proto.BAND_SIGNAL))

        def make_and_inject(package):
            decoys = adv.make_decoy_set(n, registry)
            return decoys, inject(package, decoys)

        decoys, package = spans.call("adversary.inject", make_and_inject, package)
        transcript.log("alice", "attack", {"action": "inject-decoys", "band": band, "count": n})

    transcript.log("alice", "send", {
        "channel": "alice->bob", "what": "signature-package",
        "masked": _carrier_meta(package.masked), "signature": _carrier_meta(package.signature),
        "bell_results": [o.token for o in package.bell_results],
    })
    if variant is ScenarioVariant.EVE_DISTURBS:
        package = adv.eve_disturb_outcomes(package, scenario.tamper_indices, streams.attack)
        transcript.log("eve", "attack", {"action": "disturb-bell-results",
                                         "indices": list(scenario.tamper_indices)})

    kept = {"registry": registry, "payload": None, "pad": pad, "transcript": transcript}

    def finish(result):
        return result, bell_results, kept

    def aborted(alarms):
        checks = proto.checks_jsonable(None, None, None, None)
        transcript.finish(board, scenarios.STATUS_ATTACK_DETECTED, checks)
        return finish(scenarios.RunResult(
            transcript=transcript, checks=checks, verdict=scenarios.STATUS_ATTACK_DETECTED,
            alarms=alarms, record=None, board=board, genuine_compare=None,
            compare_report=None, extraction_bits=None, extraction_matches=None,
            bell_prob_max_dev=signer_private.max_probability_deviation, claims=(),
            published_pad=None, recovered_fidelities=None, message=spec, keys=keys,
            true_pad=pad,
        ))

    fired = _screen_point(spans, transcript, "bob", "bob-receive",
                          package.masked + package.signature, defenses)
    if fired:
        return aborted(fired)

    payload = spans.call("protocol.bob_forward", proto.bob_forward, package, keys.verifier,
                         registry)
    transcript.log("bob", "send", {
        "channel": "bob->trent", "what": "ciphertext",
        "masked": _carrier_meta(payload.masked), "signature": _carrier_meta(payload.signature),
    })

    extraction_bits = None
    extraction_matches = None
    if decoys is not None:
        payload, captured = spans.call("adversary.intercept_decoys", adv.intercept_decoys,
                                       payload, decoys)
        extraction_bits = spans.call("adversary.ipe_extract", adv.ipe_extract,
                                     captured, decoys, registry, streams.attack)
        spans.counts["statevector.bell_measurements"] += len(decoys.pairs)
        extraction_matches = extraction_bits == keys.verifier.bits[: 2 * n]
        transcript.log("alice", "attack", {
            "action": "intercept-and-extract", "captured": list(captured),
            "extracted": KeyBits(extraction_bits, "extracted").to_jsonable(),
            "matches_verifier_bits": extraction_matches,
        })
    kept["payload"] = payload

    fired = _screen_point(spans, transcript, "trent", "trent-receive",
                          payload.masked + payload.signature, defenses)
    if fired:
        return aborted(fired)

    returned, record = spans.call("protocol.trent_verify", proto.trent_verify, payload,
                                  keys.signer, keys.verifier, registry)
    transcript.log("trent", "arbiter-record", record.to_jsonable())
    transcript.log("trent", "send", {
        "channel": "trent->bob", "what": "ciphertext",
        "masked": _carrier_meta(returned.masked), "signature": _carrier_meta(returned.signature),
        "verdict_carrier": returned.verdict_carrier.meta(),
    })
    report = spans.call("protocol.bob_verify_and_compare", proto.bob_verify_and_compare,
                        returned, package.bell_results, bob_labels, keys.verifier, registry)
    transcript.log("bob", "decision", {
        "action": "verify-and-compare", "verify_bit": report.verify_bit,
        "compare": report.result.value, "per_qubit": list(report.per_qubit),
    })

    claims = ()
    verdict = None
    published = None
    fidelities = None
    signature_valid = None

    def arbitration(bob_claim):
        alice_claim = Claim("alice", CLAIM_FOLLOWED)
        transcript.log("bob", "claim", {"statement": bob_claim.statement})
        transcript.log("alice", "claim", {"statement": alice_claim.statement})
        outcome = proto.arbitrate(record, alice_claim, bob_claim)
        transcript.log("trent", "verdict", {"verdict": outcome.value})
        return (alice_claim, bob_claim), outcome.value

    if variant is ScenarioVariant.BOB_LIES:
        claims, verdict = arbitration(adv.bob_dos_negate(
            adv.RunState(phase="compared", genuine_compare=report.result)))
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
        recovered = spans.call("protocol.bob_recover", proto.bob_recover, masked_states,
                               published)
        transcript.log("bob", "decision", {"action": "recover-message"})
        fidelities = tuple(sv.fidelity(state, spec.qubit(i, state.labels[0]))
                           for i, state in enumerate(recovered))
        signature_states = registry.sequence([c.payload for c in payload.signature])
        signature_valid = spans.call("protocol.verify_signature_pair",
                                     proto.verify_signature_pair, signature_states, published,
                                     spec, keys.signer)
        verdict = proto.Verdict.NO_DISPUTE.value

    checks = proto.checks_jsonable(
        record.verified, report.result.value,
        min(fidelities) if fidelities is not None else None, signature_valid)
    transcript.finish(board, verdict, checks)
    return finish(scenarios.RunResult(
        transcript=transcript, checks=checks, verdict=verdict, alarms=(), record=record,
        board=board, genuine_compare=report.result.value, compare_report=report,
        extraction_bits=extraction_bits, extraction_matches=extraction_matches,
        bell_prob_max_dev=signer_private.max_probability_deviation, claims=claims,
        published_pad=published, recovered_fidelities=fidelities, message=spec, keys=keys,
        true_pad=pad,
    ))


def traced_invocation(spans: Spans, argv: list[str], env: dict) -> tuple[int, str, list]:
    """``cli.main(argv, env)`` with every layer call timed.

    Returns the exit code, the captured stdout and, per trial, the replay's
    RunResult, Bell results and kept objects. A usage or I/O error gives
    exit code 1 like ``cli.main``.
    """
    trials = []
    try:
        config = spans.call("cli.parse_config", cli.parse_config, argv, env)
    except cli.UsageError:
        return 1, "", trials
    try:
        if config.out is not None:
            config.out.mkdir(parents=True, exist_ok=True)
        rows = []
        counts: dict[str, list[int]] = {}
        all_ok = True
        for trial in range(config.trials):
            result, bell_results, kept = replay(
                spans, config.scenario, config.n, config.seed, trial, config.defenses)
            trials.append((trial, result, bell_results, kept))
            expectations = spans.call("cli.evaluate_expectations", cli.evaluate_expectations,
                                      result, config.scenario.variant, config.defenses)
            ok = all(expectations.values())
            all_ok = all_ok and ok
            for name, passed in expectations.items():
                bucket = counts.setdefault(name, [0, 0])
                bucket[0] += int(passed)
                bucket[1] += 1
            rows.append({"trial": trial, "checks": result.checks, "verdict": result.verdict,
                         "alarms": list(result.alarms),
                         "extraction_match": result.extraction_matches, "ok": ok})
            if config.out is not None:
                data = spans.call("jsonutil.transcript_bytes", result.transcript.to_bytes)
                kept["bytes"] = len(data)
                path = config.out / cli._transcript_filename(config, trial)
                spans.call("cli.write_transcript", path.write_bytes, data + b"\n")
    except OSError:
        return 1, "", trials
    summary = cli.BatchSummary(config=config, trial_rows=rows, check_counts=counts,
                               all_ok=all_ok)
    text = spans.call("cli.render_summary", cli.render_summary, summary, config.format)
    return (0 if all_ok else 2), text + "\n", trials


def after_invocation(spans: Spans, scenario, n, seed, defenses, trials, side_rng) -> bool:
    """Untimed part of a traced invocation: reproduce each trial through
    ``run_scenario`` (itself timed), count the trial's work, and time the
    primitives on its states. Returns whether every trial was reproduced."""
    same = True
    for trial, result, bell_results, kept in trials:
        ref = spans.call("scenarios.run_scenario", scenarios.run_scenario,
                         scenario, n, seed, trial, defenses=defenses)
        ref_bells = next(tuple(e["payload"]["outcomes"]) for e in ref.transcript.events
                         if e["kind"] == "measurement")
        same = same and (
            result.verdict == ref.verdict
            and result.checks == ref.checks
            and bell_results == ref_bells
            and result.extraction_bits == ref.extraction_bits
            and (result.record.canonical_bytes() if result.record else None)
            == (ref.record.canonical_bytes() if ref.record else None)
        )

        spans.trials += 1
        spans.counts["jsonutil.transcript_bytes"] += kept.get("bytes", 0)
        spans.counts["protocol.carriers_sent"] += sum(
            sum(len(e["payload"].get(k) or []) for k in ("carriers", "masked", "signature"))
            + ("verdict_carrier" in e["payload"])
            for e in kept["transcript"].events if e["kind"] == "send")

        registry, payload = kept["registry"], kept["payload"]
        if payload is not None:
            spans.call("protocol.digest", payload.digest, registry)
        p1, b1 = registry.state_of("p1"), registry.state_of("b1")
        masked = registry.sequence([f"p{i + 1}" for i in range(n)])
        for _ in range(PRIMITIVE_REPS):
            spans.call("statevector.PureState", sv.PureState, p1.labels, p1.amps)
            spans.call("statevector.apply_pauli", sv.apply_pauli, p1, "p1", sv.PauliBits(1, 1))
            pair = spans.call("statevector.tensor", sv.tensor, p1, b1)
            spans.call("statevector.bell_measure", sv.bell_measure, pair, "p1", "b1", side_rng)
            spans.call("statevector.equal_up_to_phase", sv.equal_up_to_phase, p1, p1)
            spans.call("qotp.encrypt", qotp.encrypt, masked, kept["pad"])
    return same
