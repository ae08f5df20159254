"""The record classes of ``src/aqsim``: how each is built, whether it can
change, and how it compares. None is a dataclass, and importing the CLI
builds no class through ``dataclasses``."""
import importlib
import os
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import aqsim
from aqsim import adversary as adv
from aqsim import cli, defense, qotp, scenarios
from aqsim import protocol as proto
from aqsim import statevector as sv
from aqsim.protocol import CompareResult
from aqsim.statevector import BellOutcome

PLAN = proto.slot_plan(2)
OUTCOMES = (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS)
KEYS = proto.setup_keys(2, np.random.default_rng(0))
SPEC = proto.MessageSpec(((1, 0), (0, 1)))
TRANSCRIPT = proto.Transcript("honest", 2, 0, [])
BOARD = proto.PublicBoard()
STREAMS = scenarios.rng_streams(0, 0)
REGISTRY = proto.QuantumRegistry()
SCENARIO = adv.Scenario.from_token("honest")
CONFIG = cli.parse_config(["run", "--scenario", "honest", "--n", "2", "--trials", "1",
                           "--seed", "0"], {})

# How a record compares: by value and hashable (FROZEN), by value and
# unhashable (MUTABLE), or by identity (a *_BY_IDENTITY kind).
FROZEN, FROZEN_BY_IDENTITY, MUTABLE, MUTABLE_BY_IDENTITY = (
    "frozen", "frozen-by-identity", "mutable", "mutable-by-identity")


def run_result(v):  # the keywords of scenarios.run_scenario and perfbench/replay.py
    return scenarios.RunResult(
        transcript=TRANSCRIPT, checks={}, verdict=("no-dispute", None)[v], alarms=(),
        record=None, board=BOARD, genuine_compare=None, compare_report=None,
        extraction_bits=None, extraction_matches=None, bell_prob_max_dev=0.0, claims=(),
        published_pad=None, recovered_fidelities=None, message=SPEC, keys=KEYS,
        true_pad=KEYS.signer)


def trial(v):  # run_scenario's positional form; the flow fills in the rest
    return scenarios.Trial(SCENARIO, STREAMS, TRANSCRIPT, REGISTRY, KEYS, SPEC,
                           PLAN.halves.labels[v:], KEYS.signer, proto.SignaturePackage(
                               PLAN.masked, PLAN.signature, OUTCOMES), BOARD)


# (form, make, a field, kind): make(v) builds a record by that form, equal
# records for equal v and different ones for v = 0 and 1.
RECORDS = [
    ("PauliBits(x, z)", lambda v: sv.PauliBits(v, 1), "x", FROZEN),
    ("PureState(labels, amps)", lambda v: sv.PureState(("q",), (1 - v, v)), "amps",
     FROZEN_BY_IDENTITY),
    ("PureState._checked", lambda v: sv.states_from_rows([("q",)], np.eye(2)[v:v + 1])[0], "labels",
     FROZEN_BY_IDENTITY),
    ("KeyBits(bits, role)", lambda v: qotp.KeyBits((1, v), qotp.ROLE_PAD), "role", FROZEN),
    ("KeyBits._of_array", lambda v: qotp.KeyBits._of_array(np.array([1, v]), qotp.ROLE_PAD),
     "array", FROZEN),
    ("Claim(party, statement)", lambda v: proto.Claim(("alice", "bob")[v],
                                                      proto.CLAIM_FOLLOWED), "party", FROZEN),
    ("_Family(amps, columns)", lambda v: proto._Family(np.eye(2)[v:v + 1], (("q",),)), "amps",
     MUTABLE_BY_IDENTITY),
    ("SignaturePackage(masked, signature, bell_results)",
     lambda v: proto.SignaturePackage(PLAN.masked, PLAN.signature, OUTCOMES[v:] + OUTCOMES[:v]),
     "bell_results", FROZEN),
    ("CipherPayload(masked=, signature=)",
     lambda v: proto.CipherPayload(masked=(PLAN.masked, PLAN.signature)[v],
                                   signature=PLAN.signature), "masked", FROZEN),
    ("CipherPayload(masked, signature, verification)",
     lambda v: proto.CipherPayload(PLAN.masked, PLAN.signature,
                                   (PLAN.verification, proto.CarrierStream())[v]),
     "verification", FROZEN),
    ("TrentRecord(received_digest=, ...)",
     lambda v: proto.TrentRecord(received_digest="d1", masked_snapshot=None,
                                 signature_snapshot=None, verified=v, returned_digest="d2"),
     "verified", FROZEN),
    ("ProtocolKeys(signer=, verifier=, peer=)",
     lambda v: proto.ProtocolKeys(signer=(KEYS.signer, KEYS.peer)[v], verifier=KEYS.verifier,
                                  peer=KEYS.peer),
     "signer", FROZEN),
    ("SignerPrivate(probabilities=, max_probability_deviation=)",
     lambda v: proto.SignerPrivate(probabilities=np.full((1, 4), 0.25),
                                   max_probability_deviation=0.0),
     "max_probability_deviation", FROZEN_BY_IDENTITY),
    ("CompareReport(result, verify_bit, per_qubit)",
     lambda v: proto.CompareReport(CompareResult.MATCH_OK, v, (True,)), "verify_bit", FROZEN),
    ("Scenario(variant)", lambda v: adv.Scenario(list(adv.ScenarioVariant)[v]), "variant",
     FROZEN),
    ("Scenario.from_token", lambda v: adv.Scenario.from_token(("honest", "ipe")[v]), "variant",
     FROZEN),
    ("RunState(phase, genuine_compare)",
     lambda v: adv.RunState(adv.Phase.COMPARED, (CompareResult.MATCH_OK, None)[v]), "phase",
     FROZEN),
    ("RunState(phase=, genuine_compare=)",
     lambda v: adv.RunState(phase=("compared", "signed")[v],
                            genuine_compare=CompareResult.MATCH_OK), "genuine_compare", FROZEN),
    ("RunState(phase)", lambda v: adv.RunState(("signed", adv.Phase.VERIFIED)[v]), "phase",
     FROZEN),
    ("DecoySet(probes, keepers)", lambda v: adv.DecoySet(PLAN.probes[v:], PLAN.keepers),
     "probes", FROZEN),
    ("DefenseConfig()", lambda v: defense.DefenseConfig() if v == 0
     else defense.DefenseConfig(pns=True), "pns", FROZEN),
    ("DefenseConfig(wavelength_filter=, pns=)",
     lambda v: defense.DefenseConfig(wavelength_filter=bool(v), pns=True), "wavelength_filter",
     FROZEN),
    ("ScreenReport(flagged=)",
     lambda v: defense.ScreenReport(flagged=(((defense.DEVICE_PNS, PLAN.masked[0]),), ())[v]),
     "flagged", FROZEN),
    ("RunResult(transcript=, ...)", run_result, "verdict", MUTABLE),
    ("Trial(scenario, ..., board)", trial, "bob_labels", MUTABLE),
    ("ScenarioEntry(expect=, ...)",
     lambda v: scenarios.ScenarioEntry(expect=("no-alarms",), tamper_indices=(v,)),
     "tamper_indices", FROZEN),
    ("RunConfig(scenario=, ...)",
     lambda v: cli.RunConfig(scenario=SCENARIO, n=2, trials=1, seed=v,
                             defenses=defense.DefenseConfig(), out=None, format="text"),
     "seed", FROZEN),
    ("BatchSummary(config=, ...)",
     lambda v: cli.BatchSummary(config=CONFIG, trial_rows=[], check_counts={}, all_ok=v == 0),
     "all_ok", MUTABLE),
]

RECORD_CLASSES = {
    "statevector": ("PauliBits", "PureState"),
    "qotp": ("KeyBits",),
    "protocol": ("Claim", "_Family", "SignaturePackage", "CipherPayload", "TrentRecord",
                 "ProtocolKeys", "SignerPrivate", "CompareReport"),
    "adversary": ("Scenario", "RunState", "DecoySet"),
    "defense": ("DefenseConfig", "ScreenReport"),
    "scenarios": ("RunResult", "Trial", "ScenarioEntry"),
    "cli": ("RunConfig", "BatchSummary"),
}


def test_the_table_builds_every_record_class():
    named = {getattr(importlib.import_module(f"aqsim.{module}"), name)
             for module, names in RECORD_CLASSES.items() for name in names}
    assert len(named) == 21
    assert {type(make(0)) for _, make, _, _ in RECORDS} == named


def test_no_class_in_the_package_is_a_dataclass():
    modules = [importlib.import_module(f"aqsim.{info.name}")
               for info in pkgutil.iter_modules(aqsim.__path__) if info.name != "__main__"]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__]
    assert len(classes) > 21
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


@pytest.mark.parametrize("make,field,kind", [entry[1:] for entry in RECORDS],
                         ids=[entry[0] for entry in RECORDS])
def test_a_record_keeps_its_constructor_mutability_and_equality(make, field, kind):
    a, same, other = make(0), make(0), make(1)
    assert type(a) is type(same) is type(other)
    if kind in (FROZEN, MUTABLE):
        assert a == same and not a != same
        assert a != other and not a == other
    else:
        assert a == a and a != same
    if kind == MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(a)
        assert len({a, same, other}) == (2 if kind == FROZEN else 3)
        assert kind != FROZEN or hash(a) == hash(same)

    if kind.startswith("mutable"):
        setattr(a, field, getattr(other, field))
        assert getattr(a, field) is getattr(other, field)
        return
    # a frozen record that is not a tuple raises dataclasses' FrozenInstanceError,
    # itself an AttributeError
    error = AttributeError if isinstance(a, tuple) else FrozenInstanceError
    before = getattr(a, field)
    for name in (field, "extra"):
        with pytest.raises(error):
            setattr(a, name, getattr(other, field))
    with pytest.raises(error):
        delattr(a, field)
    assert getattr(a, field) is before


IMPORT_CHILD = """
import dataclasses
built = []
process_class = dataclasses._process_class
def counted(cls, *args, **kwargs):
    built.append(cls.__qualname__)
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counted
import aqsim.cli
print(built)
"""


def fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter, which builds every
    class of the package anew."""
    src = str(Path(aqsim.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def test_importing_the_cli_builds_no_class_through_dataclasses():
    assert fresh_interpreter(IMPORT_CHILD) == "[]\n"


def test_importing_the_cli_leaves_dataclasses_unimported():
    # only a refused write to a frozen record imports it, for FrozenInstanceError
    code = "import sys, aqsim.cli\nprint('dataclasses' in sys.modules)"
    assert fresh_interpreter(code) == "False\n"
