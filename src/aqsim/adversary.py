"""Attack strategies against the signing flow.

Three repudiation-dilemma moves leave the arbiter's record untouched while
a dispute still erupts: the verifier falsely negates a good comparison, the
signer ships corrupted Bell results, or a channel eavesdropper corrupts
them in flight. The signer can also publish a wrong pad after the fact.

The two Trojan-horse attacks ride the double transmission of the same
carriers (signer -> verifier -> arbiter): the signer tucks one half of a
fresh Bell pair next to each masked-message carrier, lets the verifier's
keyed apparatus act on it, then intercepts it before the arbiter and reads
the verifier's key bits off a Bell measurement against the retained half.

Where the probes go depends only on n and their band, so the injected
stream is made once and kept with the masked stream it interleaves
(``CarrierStream.interleaved``): every trial of n sends the same stream,
and its rendered text, and the interception hands back the masked stream
itself. Past the first trial of n, a trial builds no ``Carrier`` and no
``CarrierStream``.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import statevector as sv
from .protocol import (
    BAND_OFF,
    BAND_SIGNAL,
    CLAIM_TELEPORT_MISMATCH,
    CipherPayload,
    Claim,
    CompareResult,
    PublicBoard,
    QuantumRegistry,
    SignaturePackage,
    slot_plan,
)
from .qotp import ROLE_PAD, KeyBits
from .statevector import BELL_ORDER


class AttackError(Exception):
    pass


class InvalidPhase(AttackError):
    pass


class IndexOutOfRange(AttackError):
    pass


class SizeMismatch(AttackError):
    pass


class MissingDecoy(AttackError):
    pass


class ScenarioVariant(Enum):
    HONEST = "honest"
    BOB_LIES = "bob-lies"
    ALICE_TAMPERS = "alice-tamper"
    EVE_DISTURBS = "eve-disturb"
    ALICE_FALSE_PAD = "alice-false-pad"
    IPE = "ipe"
    DELAY_PHOTON = "delay-photon"

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, token: str) -> "ScenarioVariant":
        for variant in cls:
            if variant.value == token:
                return variant
        raise ValueError(f"unknown scenario {token!r}")


SCENARIO_TOKENS = tuple(v.value for v in ScenarioVariant)


class Scenario(NamedTuple):
    """A scenario selection. Its parameters come from its entry in
    ``scenarios.SCENARIOS`` and nowhere else."""

    variant: ScenarioVariant

    @classmethod
    def from_token(cls, token: str) -> "Scenario":
        return cls(ScenarioVariant.from_token(token))

    @property
    def token(self) -> str:
        return self.variant.token

    @property
    def tamper_indices(self) -> tuple[int, ...]:
        """The 1-based Bell results the scenario corrupts; () if it takes none."""
        from .scenarios import SCENARIOS  # that table's steps call this module

        return SCENARIOS[self.variant].tamper_indices


class Phase(Enum):
    """How far a run has got, step by step."""

    SETUP = "setup"
    SIGNED = "signed"
    FORWARDED = "forwarded"
    VERIFIED = "verified"
    COMPARED = "compared"


class RunState(namedtuple("RunState", ("phase", "genuine_compare"), defaults=(None,))):
    """Minimal view of a live run, for phase-gated attack moves. ``phase``
    takes a ``Phase`` or its value, such as ``"compared"``, and holds the
    ``Phase``; ``genuine_compare`` is a ``CompareResult`` or None. A tuple,
    for its default."""

    __slots__ = ()

    def __new__(cls, phase, *args, **kwargs):  # ValueError on an unknown phase
        return super().__new__(cls, Phase(phase), *args, **kwargs)


class DecoySet(NamedTuple):
    """Fresh Bell pairs (probe, keeper); the attacker keeps every keeper.
    The probes and the keepers are the slot plan's two label columns."""

    probes: tuple[str, ...]
    keepers: tuple[str, ...]

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """Each (probe, keeper) pair, made afresh."""
        return tuple(zip(self.probes, self.keepers))


def make_decoy_set(n: int, registry: QuantumRegistry) -> DecoySet:
    plan = slot_plan(n)
    registry.add_columns((plan.probes, plan.keepers), np.tile(sv.BELL_PAIR_AMPS, (n, 1)))
    return DecoySet(plan.probes, plan.keepers)


def bob_dos_negate(state: RunState) -> Claim:
    """Verifier falsely reports a comparison mismatch on a genuinely good run.

    Only callable once the teleport comparison really returned a match;
    the point is that nothing in the arbiter's record can refute the lie.
    """
    if state.phase is not Phase.COMPARED:
        raise InvalidPhase(f"cannot negate before the comparison step (phase={state.phase.value})")
    if state.genuine_compare is not CompareResult.MATCH_OK:
        raise InvalidPhase("negation targets a genuinely matching run")
    return Claim("bob", CLAIM_TELEPORT_MISMATCH)


def _replace_results(package: SignaturePackage, indices, shift) -> SignaturePackage:
    """Move each listed Bell result (1-based) ``shift()`` rows on in BELL_ORDER."""
    indices = tuple(indices)
    if not indices:
        raise IndexOutOfRange("need at least one index to tamper")
    for i in indices:
        if not 1 <= i <= package.n:
            raise IndexOutOfRange(f"index {i} outside 1..{package.n}")
    results = list(package.bell_results)
    for i in indices:
        row = BELL_ORDER.index(results[i - 1])
        results[i - 1] = BELL_ORDER[(row + shift()) % 4]
    return SignaturePackage(package.masked, package.signature, tuple(results))


def alice_tamper_outcomes(package: SignaturePackage, indices) -> SignaturePackage:
    """Signer replaces listed Bell results (1-based) with a different variant.

    Masked and signature carriers stay untouched, so the arbiter's check
    still passes; only the verifier's teleport comparison breaks.
    """
    return _replace_results(package, indices, lambda: 1)


def eve_disturb_outcomes(
    package: SignaturePackage, indices, rng: np.random.Generator
) -> SignaturePackage:
    """Channel eavesdropper corrupts listed Bell results in flight.

    Same effect surface as the signer-side tamper; only the transcript
    actor differs. Disturbing anything else would flip the arbiter's bit
    and break the three-way indistinguishability.
    """
    return _replace_results(package, indices, lambda: 1 + int(rng.integers(0, 3)))


def alice_publish_false_pad(
    board: PublicBoard, true_pad: KeyBits, rng: np.random.Generator
) -> KeyBits:
    """Signer posts an arbitrary pad different from the one she used."""
    n_bits = len(true_pad)
    while True:
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n_bits))
        if bits != true_pad.bits:
            break
    false_pad = KeyBits(bits, ROLE_PAD)
    board.post("alice", false_pad.to_jsonable())
    return false_pad


def _inject(package: SignaturePackage, decoys: DecoySet, band: str) -> SignaturePackage:
    """Each probe after its masked carrier, in its slot: parts (masked, probes)."""
    signal = len(package.masked) - int(np.count_nonzero(package.masked.off_band))
    if signal != len(decoys.probes):
        raise SizeMismatch(f"{len(decoys.probes)} decoys for {signal} carriers")
    return SignaturePackage(package.masked.interleaved(decoys.probes, band), package.signature,
                            package.bell_results)


def ipe_inject(package: SignaturePackage, decoys: DecoySet) -> SignaturePackage:
    """Insert each probe next to its masked-message carrier, off the signal band.

    Honest apparatus never looks at the extra band, but honest keying is by
    time slot, so the probe still picks up the verifier's positional Pauli.
    """
    return _inject(package, decoys, BAND_OFF)


def delay_photon_inject(package: SignaturePackage, decoys: DecoySet) -> SignaturePackage:
    """Same insertion, but on the signal band sharing an occupied time slot.

    Invisible to the wavelength filter; a photon-number splitter sees the
    doubly occupied slots.
    """
    return _inject(package, decoys, BAND_SIGNAL)


def intercept_decoys(
    payload: CipherPayload, decoys: DecoySet
) -> tuple[CipherPayload, tuple[str, ...]]:
    """Pull the probe carriers out of the verifier->arbiter transmission.
    The probes are the masked stream's second part, as ``_inject`` made it,
    so what is left is its first part, and no stream is built. A stream
    whose second part is not the probes raises ``MissingDecoy``."""
    first, *rest = payload.masked.parts
    if not rest or rest[0].labels != decoys.probes:
        raise MissingDecoy("the probes are not the masked stream's second part")
    return CipherPayload(first, payload.signature, payload.verification), decoys.probes


def ipe_extract(
    captured: tuple[str, ...],
    decoys: DecoySet,
    registry: QuantumRegistry,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Bell-measure each (probe, keeper) pair and read off the key bits.

    The verifier's Pauli (x, z) turned the fresh pair into the Bell state
    encoded (x, z), so each measurement yields two of his key bits with
    certainty.
    """
    have = set(captured)
    if not have.issuperset(decoys.probes):
        probe = next(probe for probe in decoys.probes if probe not in have)
        raise MissingDecoy(f"probe {probe!r} never came back (filtered upstream?)")
    outcomes, _ = registry.bell_measure_many(decoys.probes, decoys.keepers, rng)
    return tuple(bit for outcome in outcomes for bit in (outcome.x, outcome.z))
