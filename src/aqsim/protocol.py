"""Three-party signing flow: signer (alice), verifier (bob), arbiter (trent).

The signer masks her message with a private random pad, binds a second
masked copy under the signer/arbiter key, and teleports a third copy to
the verifier through pre-shared Bell pairs. The arbiter checks that the
bound copy matches what he can recompute, returns a verification bit, and
the verifier then compares his teleported copy against the delivered one.
On success the signer publishes the pad on an append-only public board and
the verifier unmasks the message.

Everything quantum lives in a ``QuantumRegistry`` keyed by qubit label.
It stores the qubits as slot families, one stacked amplitude array per
kind of group (the p, sa and b streams, the teleport groups, the decoy
pairs), so each step acts on a whole stream with one batched
``statevector`` kernel. ``Carrier`` values are the channel-level handles
(band + time slot) that the adversary and defense layers manipulate. The arbiter's entire view of
a run is the ``TrentRecord``; dispute arbitration is a pure function of
that record plus the parties' claims.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from . import jsonutil, qotp
from . import statevector as sv
from .jsonutil import canonical_bytes
from .qotp import KeyBits
from .statevector import BellOutcome, LabelCollision, PureState, UnknownLabel

BAND_SIGNAL = "signal"
BAND_OFF = "off-band"

EQUALITY_TOL = 1e-9  # state-equality tolerance for all verification checks
UNIFORM_LAW_TOL = 1e-12


class ProtocolError(Exception):
    pass


class CompareResult(Enum):
    REJECT = "reject"
    MATCH_OK = "match-ok"
    MISMATCH = "mismatch"


class Verdict(Enum):
    SIGNATURE_INVALID = "signature-invalid"
    INCONCLUSIVE = "inconclusive"
    NO_DISPUTE = "no-dispute"


# Claim statements the arbiter understands.
CLAIM_FOLLOWED = "followed-protocol"
CLAIM_TELEPORT_MISMATCH = "teleport-mismatch"
CLAIM_PAD_MISMATCH = "pad-mismatch"

_DISPUTE_STATEMENTS = (CLAIM_TELEPORT_MISMATCH, CLAIM_PAD_MISMATCH)


@dataclass(frozen=True)
class Claim:
    party: str
    statement: str


class MessageSpec:
    """The signer's classical description of her n-qubit message.

    Holding the message classically is what lets her prepare the three
    copies the flow needs without cloning anything. ``amps`` is the (n, 2)
    read-only stack of the prepared qubits, ``make_qubit``'s rows, and is
    all the flow reads; the ``coefficients`` tuple is made when first read.
    Specs are immutable, and compare and hash by their coefficients.
    """

    def __init__(self, coefficients):
        coefficients = np.array(coefficients, dtype=np.complex128).reshape(-1, 2)
        if not len(coefficients):
            raise ValueError("message needs at least one qubit")
        amps = sv.qubit_rows(coefficients)  # raises NotNormalized off the unit sphere
        amps.flags.writeable = False
        coefficients.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_coefficients", coefficients)

    @cached_property  # writes the instance __dict__, past __setattr__
    def coefficients(self) -> tuple[tuple[complex, complex], ...]:
        return tuple(map(tuple, self._coefficients.tolist()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"MessageSpec(coefficients={self.coefficients!r})"

    def __eq__(self, other):
        if type(other) is not MessageSpec:
            return NotImplemented
        return bool(np.array_equal(self._coefficients, other._coefficients))

    def __hash__(self):
        return hash(self.coefficients)

    @property
    def n(self) -> int:
        return len(self.amps)

    def qubit(self, i: int, label) -> PureState:
        return sv.states_from_rows([(label,)], self.amps[i:i + 1])[0]


def random_message_spec(
    n: int, rng: np.random.Generator, generic_margin: float = 0.0
) -> MessageSpec:
    """Sample n random qubit descriptions.

    With ``generic_margin`` > 0, resample any qubit whose Bloch vector comes
    within the margin of a Pauli axis, so no sampled qubit is close to an
    eigenstate of any nonidentity Pauli. Such "generic" qubits make every
    wrong Pauli detectable by the equality checks. Every pure qubit has a
    Bloch component of size at least 1/sqrt(3), so a margin of
    1 - 1/sqrt(3) (about 0.4226) or more admits no qubit: ``ValueError``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if generic_margin >= 1.0 - 1.0 / math.sqrt(3.0):
        raise ValueError(f"no qubit passes a generic margin of {generic_margin}")
    limit = 1.0 - generic_margin
    half = limit / 2  # |<X>| = 2|Re(conj(a) b)| > limit exactly when |Re(conj(a) b)| > half
    coeffs = []
    # One block of draws for the qubits still needed, walked in order: the
    # same doubles, and the same accepted qubits, as one normal(size=4) per try.
    while len(coeffs) < n:
        for a, b in rng.normal(size=(n - len(coeffs), 4)).view(np.complex128).tolist():
            norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
            if norm < 1e-6:
                continue
            a /= norm
            b /= norm
            if generic_margin > 0.0 and (
                    abs(a.real * b.real + a.imag * b.imag) > half      # <X> / 2
                    or abs(a.real * b.imag - a.imag * b.real) > half   # <Y> / 2
                    or abs(abs(a) ** 2 - abs(b) ** 2) > limit):        # <Z>
                continue
            coeffs.append((a, b))
    return MessageSpec(coeffs)


class Carrier(NamedTuple):
    """Channel-level handle for one photon: band, slot, and the qubit it holds.

    A plain immutable tuple, so a stream of them costs a tuple per carrier;
    its first three items are the (id, band, slot) that ``jsonutil``
    renders.
    """

    id: str
    band: str
    time_slot: int
    payload: str

    def meta(self) -> dict:
        return {"id": self.id, "band": self.band, "slot": self.time_slot}


_new_carrier = partial(tuple.__new__, Carrier)  # from an (id, band, slot, payload) row
_LABELS = itemgetter(3)  # a carrier's payload label
_SLOTS = itemgetter(2)


class CarrierStream(tuple):
    """A stream of carriers, one transmission, that works out what the flow
    reads off it once and keeps it: its label stream, its slots, and the
    canonical id, band and slot columns and text of its carriers.

    The streams that n alone fixes come from ``slot_plan`` and serve every
    trial of that n. A stream built in a trial, such as an attacker's
    injected or cleaned stream, keeps its fields for as long as the trial
    holds it. ``tuple()`` and slices of a stream are plain tuples, which
    keep nothing: ``of`` takes any sequence of carriers to a stream.
    """

    @classmethod
    def of(cls, carriers: Sequence[Carrier]) -> CarrierStream:
        """``carriers`` as a stream: a stream as it is, any other sequence
        of carriers copied into one. A bare ``Carrier`` (itself a tuple) or
        an item that is not a ``Carrier`` raises ``TypeError``."""
        if type(carriers) is cls:
            return carriers
        if isinstance(carriers, Carrier):
            raise TypeError(f"expected a sequence of carriers, got the carrier {carriers.id!r}")
        stream = cls(carriers)
        for item in stream:
            if not isinstance(item, Carrier):
                raise TypeError(f"expected a sequence of carriers, got an item {item!r}")
        return stream

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Each carrier's payload label."""
        return tuple(map(_LABELS, self))

    @cached_property
    def slots(self) -> np.ndarray:
        """Each carrier's time slot, the index its key Pauli is drawn by (read-only)."""
        slots = np.fromiter(map(_SLOTS, self), dtype=np.intp, count=len(self))
        slots.flags.writeable = False
        return slots

    @cached_property
    def columns(self) -> tuple[tuple, tuple, tuple]:
        """The canonical id, band and slot columns that a payload digest reads."""
        return jsonutil.carrier_columns(self)

    @cached_property
    def rendered(self) -> jsonutil.Rendered:
        """The canonical ``[{"id", "band", "slot"}, ...]`` that a send event logs."""
        return jsonutil.render_carriers(self, self.columns)


def carriers_of(ids: Sequence[str], band: str, first_slot: int) -> CarrierStream:
    """One carrier per id, in consecutive slots from ``first_slot``, each
    holding the qubit labeled with its id."""
    slots = range(first_slot, first_slot + len(ids))
    return CarrierStream(map(_new_carrier, zip(ids, repeat(band), slots, ids)))


class SlotPlan(NamedTuple):
    """The labels and carrier streams that n alone fixes: every trial of n
    shares them, and only the amplitudes and keys differ between trials."""

    pairs: tuple[tuple[str, str], ...]  # the shared Bell pairs (a_i, b_i)
    alice: tuple[str, ...]  # a_1..a_n, the signer's halves
    bob: tuple[str, ...]  # b_1..b_n, the verifier's halves
    teleport: tuple[str, ...]  # t_1..t_n, the copies the signer Bell-measures
    decoys: tuple[tuple[str, str], ...]  # the Trojan probes and keepers (d1_i, d2_i)
    halves: CarrierStream  # the b halves, slots 0..n-1
    masked: CarrierStream  # p_i, slots 0..n-1
    signature: CarrierStream  # sa_i, slots n..2n-1
    verification: CarrierStream  # v, slot 2n


@lru_cache(maxsize=1)
def slot_plan(n: int) -> SlotPlan:
    """The slot plan of n, built once per process and shared, read-only, by
    every trial of n. Only the last size's plan is kept: an ``aqsim run``
    batch, ``scripts/run_matrix.py`` and each benchmark workload run one n
    per process, and a trial asks only for its own n's plan. A plan holds
    about 1.6 KB per qubit once its streams have been read (6.4 MB at
    n=4,096)."""
    if n < 0:
        raise ValueError("need n >= 0")
    ids = range(1, n + 1)
    alice, bob, teleport, masked, signature, probes, keepers = (
        tuple(f"{tag}{i}" for i in ids) for tag in ("a", "b", "t", "p", "sa", "d1_", "d2_"))
    return SlotPlan(
        pairs=tuple(zip(alice, bob)), alice=alice, bob=bob, teleport=teleport,
        decoys=tuple(zip(probes, keepers)),
        halves=carriers_of(bob, BAND_SIGNAL, 0),
        masked=carriers_of(masked, BAND_SIGNAL, 0),
        signature=carriers_of(signature, BAND_SIGNAL, n),
        verification=carriers_of(("v",), BAND_SIGNAL, 2 * n),
    )


@dataclass(eq=False, slots=True)
class _Family:
    """m groups of k qubits each, stored as one (m, 2**k) amplitude array.

    Row r is the group over ``labels[r]``; axis j of that group is qubit
    ``labels[r][j]``. Rows are checked where they are made: ``add_rows``
    checks the rows it is given, ``_add_checked_rows`` takes rows that a
    public kernel has just checked (the signer's masked stacks from
    ``qotp.mask_rows``, a Bell residual from ``bell_measure_rows``), and
    ``tensor_rows`` checks the merged groups of a Bell measurement. After
    that only Paulis write them, and a Pauli keeps a row on the unit sphere
    bit for bit. Families hash by identity.
    """

    amps: np.ndarray
    labels: list
    every: np.ndarray  # arange(m): the rows of each axis stream's kept resolution


class _Bucket(NamedTuple):
    """The labels of one stream that sit at one (family, axis): their
    positions in the stream (``slice(None)`` when they are the whole
    stream) and their rows."""

    family: _Family
    axis: int
    positions: np.ndarray | slice
    rows: np.ndarray

    @property
    def row_labels(self) -> list:
        """The labels of each of the bucket's rows, made afresh."""
        return list(map(self.family.labels.__getitem__, self.rows.tolist()))


class QuantumRegistry:
    """Which qubit group holds each labeled qubit, stored as slot families.

    The protocol factors by time slot: slot i holds p_i and sa_i, the
    teleport group t_i (x) (a_i, b_i) and, under the Trojan attacks, a decoy
    pair. So groups of one shape live together in a family (one stacked
    amplitude array, see ``_Family``). It keeps the (family, axis) parts
    and a map from label to (part, row), nothing else. An operation runs one
    ``statevector`` kernel per (family, axis) bucket of its labels; reads
    make their values afresh from the rows. A Bell measurement merges the
    two groups involved, then drops the measured labels. It compares no
    states: the protocol's checks compare rows read with ``amps_of``.

    The flow sends the same carrier streams over three legs, so it asks for
    the same label streams at every step. Each distinct label stream is
    resolved into its buckets once and the result kept (``_resolve``). A new
    family's label streams, one per axis, are resolved as it is added: one
    bucket holding every row, with no walk. Adding rows leaves every kept
    resolution true; ``bell_measure_many``, the one call that deletes and
    moves labels, drops the ones that touch the two families it measured.
    Any other stream is walked label by label the first time it is asked for.

    The batched calls take uniform streams, one carrier per time slot. Any
    other input raises before anything changes; there are no single-label
    calls, and a caller with mixed pairs measures them one pair per call.

    ``memo`` keeps this trial's float tokens (see ``jsonutil.RenderMemo``):
    a value read twice is formatted once. A carrier stream keeps its own
    carrier columns (``CarrierStream``).
    """

    def __init__(self):
        self._parts: list = []  # part id -> (family, axis)
        self._where: dict = {}  # label -> (part id, row)
        self._resolved: dict = {}  # label stream (a tuple) -> its buckets
        self.memo = jsonutil.RenderMemo()

    def _buckets(self, labels: tuple) -> list[_Bucket]:
        """Walk ``labels`` into the (family, axis) buckets holding them, in
        first-seen order."""
        try:
            where = list(map(self._where.__getitem__, labels))
        except KeyError as missing:
            raise UnknownLabel(f"label {missing.args[0]!r} not in registry") from None
        if not where:
            return []
        parts, rows = zip(*where)
        if parts.count(parts[0]) == len(parts):  # the common case: one bucket
            return [_Bucket(*self._parts[parts[0]], slice(None), np.array(rows, dtype=np.intp))]
        groups = {}  # part -> (positions, rows)
        for pos, part, row in zip(range(len(rows)), parts, rows):
            group = groups.get(part)
            if group is None:
                group = groups[part] = ([], [])
            group[0].append(pos)
            group[1].append(row)
        return [_Bucket(*self._parts[part], np.array(positions, dtype=np.intp),
                        np.array(part_rows, dtype=np.intp))
                for part, (positions, part_rows) in groups.items()]

    def _resolve(self, labels: Sequence) -> list[_Bucket]:
        """The buckets of a label stream, kept from ``add_rows`` or walked once,
        until ``bell_measure_many`` measures a family they touch."""
        key = labels if type(labels) is tuple else tuple(labels)
        buckets = self._resolved.get(key)
        if buckets is None:
            buckets = self._resolved[key] = self._buckets(key)
        return buckets

    def add_rows(self, labels, amps: np.ndarray) -> None:
        """Register one new family: ``labels[r]`` names the qubits of ``amps[r]``.
        A label must be a ``str``, the only label type canonical text renders.
        Every check runs before anything is registered."""
        labels, amps = self._new_family(labels, amps)
        self._register(labels, sv.check_rows(amps))

    def _add_checked_rows(self, labels, amps: np.ndarray) -> None:
        """``add_rows`` for rows that a public kernel has just checked: every
        check but ``check_rows``."""
        self._register(*self._new_family(labels, amps))

    def _new_family(self, labels, amps) -> tuple[list, np.ndarray]:
        """The rows of a new family, as (label tuples, (m, 2**k) complex
        stack), once their labels and shape pass every check."""
        labels = [tuple(row) for row in labels]
        amps = np.array(amps, dtype=np.complex128).reshape(len(labels), -1)
        k = amps.shape[1].bit_length() - 1
        if {*map(len, labels)} - {k} or 2 ** k != amps.shape[1]:
            raise sv.StateError(f"amplitude count {amps.shape[1]} does not match the rows' "
                                f"qubit counts {sorted({*map(len, labels)})}")
        if k > sv.MAX_QUBITS:
            raise sv.TooManyQubits(f"{k} qubits exceeds the {sv.MAX_QUBITS}-qubit cap")
        flat = list(chain.from_iterable(labels))
        if {*map(type, flat)} - {str}:
            bad = next(label for label in flat if type(label) is not str)
            raise TypeError(f"label {bad!r} is not a str")
        new = set(flat)
        if len(new) != len(flat):
            for row in labels:
                if len(set(row)) != k:
                    raise sv.DuplicateLabel(f"duplicate qubit labels in {row}")
        if len(new) != len(flat) or not new.isdisjoint(self._where):
            seen: set = set()  # name the first label repeated or already registered
            for label in flat:
                if label in seen or label in self._where:
                    raise LabelCollision(f"label {label!r} already registered")
                seen.add(label)
        return labels, amps

    def _register(self, labels: list, amps: np.ndarray) -> None:
        """Add the checked family one axis at a time, and keep the resolution
        of each axis's label stream."""
        family = _Family(amps, labels, np.arange(len(labels)))
        for axis, stream in enumerate(zip(*labels)):
            part = len(self._parts)
            self._parts.append((family, axis))
            self._where.update(zip(stream, zip(repeat(part), range(len(stream)))))
            self._resolved[stream] = [_Bucket(family, axis, slice(None), family.every)]

    def _gather(self, labels: Sequence, read):
        """Item i read off the group of ``labels[i]``, by one ``read(bucket, amps)``
        per bucket; a bucket that holds every label returns ``read``'s result as is."""
        buckets = self._resolve(labels)
        if len(buckets) == 1:
            bucket = buckets[0]
            return read(bucket, bucket.family.amps[bucket.rows])
        out: list = [None] * len(labels)
        for bucket in buckets:
            items = read(bucket, bucket.family.amps[bucket.rows])
            for pos, item in zip(bucket.positions.tolist(), items):
                out[pos] = item
        return out

    def state_of(self, label) -> PureState:
        return self.sequence([label])[0]

    def sequence(self, labels: Sequence) -> tuple[PureState, ...]:
        """The state of each label's group, in label order."""
        return tuple(self._gather(labels, lambda b, amps: sv.states_from_rows(b.row_labels, amps)))

    def amps_of(self, labels: Sequence) -> np.ndarray:
        """The amplitudes of each label's group, stacked in label order."""
        rows = self._gather(labels, lambda _, amps: amps)
        try:
            amps = np.asarray(rows, dtype=np.complex128)
        except ValueError:  # rows of different widths do not stack
            raise sv.LabelMismatch(f"labels {list(labels)} sit in groups of different sizes") from None
        return amps if len(labels) else np.empty((0, 2), dtype=np.complex128)

    def render_states(self, labels: Sequence, heads=()) -> str:
        """The canonical texts of ``state_of(label).to_jsonable()`` for each
        label, joined by commas; with ``heads`` (a ``CarrierStream``'s
        ``columns``), of each carrier's ``{"id", "band",
        "slot", "state"}``. One render per bucket; a stream that spans
        buckets has each bucket's rows placed by their stream positions."""
        def render(bucket, bucket_heads, sep=","):
            return jsonutil.render_states(zip(*bucket.row_labels), bucket.family.amps[bucket.rows],
                                          self.memo, bucket_heads, sep)

        buckets = self._resolve(labels)
        if len(buckets) == 1:
            return render(buckets[0], heads)
        rows: list = [None] * len(labels)
        for bucket in buckets:
            positions = bucket.positions.tolist()
            # one row per line: no row's text holds a newline
            text = render(bucket, [list(map(column.__getitem__, positions)) for column in heads],
                          "\n")
            for pos, row in zip(positions, text.split("\n")):
                rows[pos] = row
        return ",".join(rows)

    def apply_paulis(self, labels: Sequence, x, z, inverse: bool = False) -> None:
        """Qubit ``labels[i]`` gets sigma_x^x[i] sigma_z^z[i], sigma_z first;
        ``inverse`` undoes that exactly (sigma_x first, then sigma_z)."""
        if len(set(labels)) != len(labels):
            raise sv.DuplicateLabel("apply_paulis takes each label once")
        x = np.asarray(x)
        z = np.asarray(z)
        for family, axis, positions, rows in self._resolve(labels):
            family.amps[rows] = sv._pauli_rows(family.amps[rows], axis, x[positions],
                                               z[positions], inverse)

    def _merged(self, labels1: Sequence, labels2: Sequence) -> tuple:
        """The merged group of each pair (labels1[i], labels2[i]), stacked:
        (amps, axis1, axis2, row labels, the two families). Raises
        ``LabelMismatch`` unless each side sits at one (family, axis) and no
        two pairs touch one group."""
        if any(l1 == l2 for l1, l2 in zip(labels1, labels2)):
            raise sv.DuplicateLabel("bell measurement needs two distinct labels")
        first, second = self._resolve(labels1), self._resolve(labels2)
        if len(first) != 1 or len(second) != 1:
            raise sv.LabelMismatch("a side of a batched Bell call spans two families or axes")
        (f1, x1, _, rows1), (f2, x2, _, rows2) = first[0], second[0]
        labels_1 = first[0].row_labels
        one_group = f1 is f2 and np.array_equal(rows1, rows2)
        # a kept resolution of a whole family axis holds each row once, so two
        # of them touch no group twice; any other side is checked
        if rows1 is not f1.every or rows2 is not f2.every:
            touched = [(f1, r) for r in rows1.tolist()]
            if not one_group:
                touched += [(f2, r) for r in rows2.tolist()]
            if len(set(touched)) != len(touched):
                raise sv.LabelMismatch("two pairs of a batched Bell call touch one group")
        if one_group:
            return f1.amps[rows1], x1, x2, labels_1, (f1, f2)
        return (sv.tensor_rows(f1.amps[rows1], f2.amps[rows2]), x1, len(labels_1[0]) + x2,
                list(map(tuple.__add__, labels_1, second[0].row_labels)), (f1, f2))

    def bell_measure_many(
        self, labels1: Sequence, labels2: Sequence, rng: np.random.Generator
    ) -> tuple[list[BellOutcome], np.ndarray]:
        """Bell-measure each pair (labels1[i], labels2[i]): the outcomes, and
        the (m, 4) branch probabilities (BELL_ORDER columns) they were drawn from.

        The m pairs draw one uniform each, in pair order, from a single
        ``rng.random(m)`` call: the same doubles as m ``statevector.bell_measure``
        calls, one per pair.
        """
        if len(labels1) != len(labels2):
            raise ValueError("labels1 and labels2 must align")
        if not labels1:
            return [], np.empty((0, 4))
        amps, axis1, axis2, row_labels, measured = self._merged(labels1, labels2)
        rows, probs, residual = sv.bell_measure_rows(amps, axis1, axis2,
                                                     rng.random(len(labels1)))
        for label in chain.from_iterable(row_labels):
            del self._where[label]
        # the measured labels are gone and the rest of their groups move, so
        # a kept stream that touches either family no longer holds
        self._resolved = {stream: buckets for stream, buckets in self._resolved.items()
                          if not any(bucket.family in measured for bucket in buckets)}
        keep = [j for j in range(len(row_labels[0])) if j not in (axis1, axis2)]
        if keep:  # bell_measure_rows checked the residual
            self._add_checked_rows(zip(*(map(itemgetter(j), row_labels) for j in keep)),
                                   residual)
        return [sv.BELL_ORDER[r] for r in rows.tolist()], probs


@dataclass(frozen=True)
class SignaturePackage:
    """What the signer ships: masked message carriers, bound-signature
    carriers, and her Bell results (one per message qubit)."""

    masked: CarrierStream
    signature: CarrierStream
    bell_results: tuple[BellOutcome, ...]

    def __post_init__(self):
        object.__setattr__(self, "masked", CarrierStream.of(self.masked))
        object.__setattr__(self, "signature", CarrierStream.of(self.signature))
        object.__setattr__(self, "bell_results", tuple(self.bell_results))
        if len(self.signature) != len(self.bell_results):
            raise ValueError("signature carriers and bell results must align")
        if len(self.signature) == 0 or len(self.masked) == 0:
            raise ValueError("empty package")

    @property
    def n(self) -> int:
        return len(self.signature)


@dataclass(frozen=True)
class CipherPayload:
    """The carrier streams of one quantum ciphertext transmission: masked,
    signature and, on the return leg, the one-carrier verification stream."""

    masked: CarrierStream
    signature: CarrierStream
    verification: CarrierStream = CarrierStream()

    def __post_init__(self):
        for name in ("masked", "signature", "verification"):
            object.__setattr__(self, name, CarrierStream.of(getattr(self, name)))

    @property
    def verdict_carrier(self) -> Carrier | None:
        """The verification carrier, or None before the arbiter adds it."""
        return self.verification[0] if self.verification else None

    def streams(self) -> tuple[CarrierStream, ...]:
        """The carrier streams in send order, the verification stream last
        when there is one."""
        return (self.masked, self.signature) + ((self.verification,) if self.verification else ())

    def digest(self, registry: QuantumRegistry) -> str:
        """Receive-time digest: carrier metadata plus the exact states held,
        the sha256 of the canonical list of {"id", "band", "slot", "state"}."""
        return hashlib.sha256(_digest_bytes(self.streams(), registry)).hexdigest()


def _digest_bytes(streams, registry: QuantumRegistry) -> bytes:
    """The canonical list of {"id", "band", "slot", "state"} of ``streams``
    that a payload digest hashes, rendered one stream at a time, each
    stream's carrier columns read off the stream (``CarrierStream``)."""
    texts = [registry.render_states(s.labels, s.columns) for s in streams if s]
    return ("[" + ",".join(texts) + "]").encode("ascii")


class PublicBoard:
    """Append-only broadcast board; entries are never mutated or removed."""

    def __init__(self):
        self._entries: list[tuple[str, dict]] = []

    def post(self, author: str, value: dict) -> None:
        self._entries.append((author, value))

    @property
    def entries(self) -> tuple[tuple[str, dict], ...]:
        return tuple(self._entries)

    def to_jsonable(self) -> list:
        return [{"author": a, "value": v} for a, v in self._entries]


@dataclass(frozen=True)
class TrentRecord:
    """Everything the arbiter observes in one run.

    Deliberately poor: no Bell results, no verifier-side qubits, no pad.
    Dispute verdicts may depend on nothing else.
    """

    received_digest: str
    masked_snapshot: jsonutil.Rendered  # the list of decrypted states, one stream
    signature_snapshot: jsonutil.Rendered
    verified: int
    returned_digest: str

    def to_jsonable(self) -> dict:
        return {
            "received_digest": self.received_digest,
            "masked": self.masked_snapshot,
            "signature": self.signature_snapshot,
            "V": self.verified,
            "returned_digest": self.returned_digest,
        }

    def canonical_bytes(self) -> bytes:
        return canonical_bytes(self.to_jsonable())


@dataclass(frozen=True)
class ProtocolKeys:
    signer: KeyBits
    verifier: KeyBits
    peer: KeyBits


@dataclass(frozen=True)
class SignerPrivate:
    """What the signer keeps to herself after signing, besides the pad."""

    outcome_probabilities: tuple
    max_probability_deviation: float


@dataclass(frozen=True)
class CompareReport:
    result: CompareResult
    verify_bit: int
    per_qubit: tuple[bool, ...]


class Transcript:
    """Append-only event log of one run plus its config and final checks."""

    def __init__(self, scenario: str, n: int, seed: int, defenses: Sequence[str]):
        self.config = {"scenario": scenario, "n": n, "seed": seed, "defenses": list(defenses)}
        self.events: list[dict] = []
        self.board: list = []
        self.verdict: str | None = None
        self.checks: dict | None = None

    def log(self, actor: str, kind: str, payload: dict) -> None:
        self.events.append({"t": len(self.events), "actor": actor, "kind": kind, "payload": payload})

    def finish(self, board: PublicBoard, verdict: str | None, checks: dict) -> None:
        self.board = board.to_jsonable()
        self.verdict = verdict
        self.checks = checks

    def to_jsonable(self) -> dict:
        return {
            "config": self.config,
            "events": self.events,
            "board": self.board,
            "verdict": self.verdict,
            "checks": self.checks,
        }

    def to_bytes(self) -> bytes:
        return canonical_bytes(self.to_jsonable())


def checks_jsonable(
    verified: int | None,
    compare: str | None,
    recover_fidelity_min: float | None,
    signature_valid: bool | None,
) -> dict:
    """The transcript's fixed-order checks block."""
    return {
        "V": verified,
        "v5": compare,
        "recover_fidelity_min": recover_fidelity_min,
        "signature_valid": signature_valid,
    }


# --- the protocol steps -----------------------------------------------------


def setup_keys(n: int, rng: np.random.Generator) -> ProtocolKeys:
    """Trusted setup: arbiter-shared keys plus the reserved peer key.

    The verifier key is 4n+2 bits: 2 per masked-message qubit, 2 per
    signature qubit, and 2 for the verification-bit qubit on the return leg.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return ProtocolKeys(
        signer=qotp.random_bits(2 * n, qotp.ROLE_SIGNER, rng),
        verifier=qotp.random_bits(4 * n + 2, qotp.ROLE_VERIFIER, rng),
        peer=qotp.random_bits(2 * n, qotp.ROLE_PEER, rng),
    )


def distribute_bell_pairs(n: int, registry: QuantumRegistry) -> tuple[tuple, tuple]:
    """n shared Bell pairs; the signer keeps the a-halves, the verifier the b-halves.

    Delivery is modeled as a perfect authenticated channel.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    plan = slot_plan(n)
    registry.add_rows(plan.pairs, np.tile(sv.BELL_PAIR_AMPS, (n, 1)))
    return plan.alice, plan.bob


def alice_sign(
    spec: MessageSpec,
    signer_key: KeyBits,
    rng: np.random.Generator,
    registry: QuantumRegistry,
    alice_labels: Sequence,
    forced_pad: KeyBits | None = None,
) -> tuple[SignaturePackage, KeyBits, SignerPrivate]:
    """Produce the signature package.

    Three copies of the message are prepared from the classical spec: one is
    pad-masked and shipped, one is pad-masked then bound under the signer
    key, and one is pad-masked and consumed by Bell measurements against the
    signer's halves of the shared pairs. The four analytic branch
    probabilities each measurement drew from must be 1/4 within
    ``UNIFORM_LAW_TOL``; otherwise no package is made.
    """
    n = spec.n
    if len(alice_labels) != n:
        raise ProtocolError(f"have {len(alice_labels)} shared pairs for {n} qubits")
    pad = qotp.random_pad(n, rng)  # always drawn, to keep the stream aligned
    if forced_pad is not None:
        if len(forced_pad.bits) != 2 * n:
            raise ProtocolError("forced pad has the wrong length")
        pad = forced_pad

    masked = qotp.mask_rows(spec.amps, pad)
    signature = qotp.mask_rows(masked, signer_key)
    plan = slot_plan(n)
    # qotp.mask_rows checked both stacks
    registry._add_checked_rows(zip(plan.masked.labels), masked)
    registry._add_checked_rows(zip(plan.signature.labels), signature)
    registry._add_checked_rows(zip(plan.teleport), masked)

    outcomes, probs = registry.bell_measure_many(plan.teleport, alice_labels, rng)
    devs = np.max(np.abs(probs - 0.25), axis=1)
    bad = np.flatnonzero(devs > UNIFORM_LAW_TOL)
    if bad.size:
        raise ProtocolError(
            f"Bell branch probabilities {tuple(probs[bad[0]].tolist())} deviate from 1/4 "
            f"beyond {UNIFORM_LAW_TOL}"
        )
    max_dev = max(0.0, float(devs.max()))

    # One channel message, one slot sequence: masked slots 0..n-1, then
    # signature slots n..2n-1. Key bits are consumed positionally by slot.
    package = SignaturePackage(plan.masked, plan.signature, tuple(outcomes))
    private = SignerPrivate(
        outcome_probabilities=tuple(map(tuple, probs.tolist())),
        max_probability_deviation=max_dev,
    )
    return package, pad, private


def _mask_streams(
    registry: QuantumRegistry,
    streams: Sequence[CarrierStream],
    key: KeyBits,
    inverse: bool,
) -> None:
    """Apply each slot's positional key Pauli to every carrier in the slot,
    one carrier stream at a time: in an honest run each stream is the label
    stream of one family axis, which the registry resolved when it was
    added, where the streams joined would have to be walked.

    Honest apparatus keys by time slot, which is exactly why an adversarial
    carrier sharing a slot picks up the same keyed operation. The streams
    are one transmission: a label in two of them raises ``DuplicateLabel``
    before any is masked, as it would within one stream.
    """
    labels = [stream.labels for stream in streams]
    if len(set(chain.from_iterable(labels))) != sum(map(len, labels)):
        raise sv.DuplicateLabel("apply_paulis takes each label once")
    for stream in streams:
        x, z = qotp.key_paulis(key, stream.slots)
        registry.apply_paulis(stream.labels, x, z, inverse=inverse)


def bob_forward(
    package: SignaturePackage, verifier_key: KeyBits, registry: QuantumRegistry
) -> CipherPayload:
    """Encrypt the masked and signature streams under the verifier key.

    The streams form one concatenated sequence over slots 0..2n-1, so the
    transmission consumes 4n key bits. Bell results are retained, never
    forwarded.
    """
    _mask_streams(registry, (package.masked, package.signature), verifier_key, inverse=False)
    return CipherPayload(masked=package.masked, signature=package.signature)


def _qubit_rows(registry: QuantumRegistry, labels: Sequence) -> np.ndarray:
    """The (m, 2) rows of single-qubit groups, for a comparison of content, not identity."""
    amps = registry.amps_of(labels)
    if amps.shape[1] != 2:
        raise sv.StateError("content comparison needs single-qubit groups")
    return amps


def trent_verify(
    payload: CipherPayload,
    signer_key: KeyBits,
    verifier_key: KeyBits,
    registry: QuantumRegistry,
) -> tuple[CipherPayload, TrentRecord]:
    """Arbiter check: decrypt, recompute the bound copy, compare, return the bit.

    Pauli masks act exactly, so decrypting and re-encrypting under one key
    leaves every carrier bit for bit as it arrived: the check reads each
    stream once and runs on a decrypted copy. The only qubit written is the
    verification bit, a computational-basis qubit keyed by the final two
    verifier-key bits (slot 2n) on the way back.
    """
    n = len(payload.signature)
    if len(payload.masked) != n:
        raise ProtocolError(
            f"expected {n} masked carriers to match {n} signature carriers, "
            f"got {len(payload.masked)}"
        )
    if payload.verification:
        raise ProtocolError("the arbiter's payload already carries a verification qubit")
    received = _digest_bytes(payload.streams(), registry)
    rows_hash = hashlib.sha256(received[:-1])
    received_hash = rows_hash.copy()
    received_hash.update(b"]")

    def decrypted(carriers):  # unmasked by slot, as _mask_streams keys the channel
        x, z = qotp.key_paulis(verifier_key, carriers.slots)
        labels = carriers.labels
        amps = sv._pauli_rows(_qubit_rows(registry, labels), 0, x, z, inverse=True)
        return amps, jsonutil.Rendered(
            "[" + jsonutil.render_states((labels,), amps, registry.memo) + "]")

    (masked, masked_snapshot), (signature, signature_snapshot) = (
        decrypted(payload.masked), decrypted(payload.signature))

    # Bind the received masked copy under the signer key and compare per qubit.
    verified = int(all(sv.equal_up_to_phase_rows(qotp.mask_rows(masked, signer_key), signature,
                                                 EQUALITY_TOL)))

    verification = slot_plan(n).verification
    registry.add_rows(zip(verification.labels), [[1 - verified, verified]])
    _mask_streams(registry, [verification], verifier_key, inverse=False)

    # The arbiter wrote no carrier but v, so the returned digest's text is the
    # received one with v's row added before the closing "]": hash on from there.
    rows_hash.update((b"," if n else b"") + _digest_bytes((verification,), registry)[1:])
    return CipherPayload(payload.masked, payload.signature, verification), TrentRecord(
        received_digest=received_hash.hexdigest(),
        masked_snapshot=masked_snapshot,
        signature_snapshot=signature_snapshot,
        verified=verified,
        returned_digest=rows_hash.hexdigest(),
    )


def _read_basis_bit(amps: np.ndarray) -> int:
    amps = np.abs(amps)
    bit = int(np.argmax(amps))
    if abs(amps[bit] - 1.0) > EQUALITY_TOL:
        raise ProtocolError("verification qubit is not a computational basis state")
    return bit


def bob_verify_and_compare(
    payload: CipherPayload,
    bell_results: Sequence[BellOutcome],
    bob_labels: Sequence,
    verifier_key: KeyBits,
    registry: QuantumRegistry,
) -> CompareReport:
    """Verifier's turn: decrypt the return leg, honor the verification bit,
    then teleport-correct each held half and compare it with the delivered
    masked qubit."""
    n = len(payload.signature)
    if not payload.verification:
        raise ProtocolError("return payload carries no verification qubit")
    if len(bob_labels) != n or len(bell_results) != n:
        raise ProtocolError("verifier context does not match payload size")

    _mask_streams(registry, payload.streams(), verifier_key, inverse=True)

    verify_bit = _read_basis_bit(registry.amps_of(payload.verification.labels)[0])
    if verify_bit == 0:
        return CompareReport(CompareResult.REJECT, 0, ())

    # The correction for outcome (x, z) is sigma_x^x sigma_z^z (sv.teleport_correction).
    registry.apply_paulis(bob_labels, [o.x for o in bell_results], [o.z for o in bell_results])
    per_qubit = tuple(sv.equal_up_to_phase_rows(
        _qubit_rows(registry, bob_labels), _qubit_rows(registry, payload.masked.labels),
        EQUALITY_TOL))
    result = CompareResult.MATCH_OK if all(per_qubit) else CompareResult.MISMATCH
    return CompareReport(result, 1, per_qubit)


def publish_pad(board: PublicBoard, pad: KeyBits) -> None:
    """Signer posts her pad; the board is tamper-free and append-only."""
    board.post("alice", pad.to_jsonable())


def bob_recover(
    masked_states: Sequence[PureState], pad: KeyBits
) -> tuple[PureState, ...]:
    """Unmask the delivered message copy with the published pad."""
    return qotp.decrypt(masked_states, pad)


def verify_signature_rows(
    held: np.ndarray, pad: KeyBits, spec: MessageSpec, signer_key: KeyBits
) -> bool:
    """Final validity check of the held (signature, pad) pair.

    Rebuilds pad-masked-then-bound copies from the message spec and compares
    them per qubit against ``held``, the signature's (n, 2) rows.
    """
    if len(held) != spec.n:
        raise ProtocolError("signature length does not match the message spec")
    if held.shape[1:] != (2,):
        raise sv.LabelMismatch("signature states must be single qubits")
    expected = qotp.mask_rows(qotp.mask_rows(spec.amps, pad), signer_key)
    return all(sv.equal_up_to_phase_rows(expected, held, EQUALITY_TOL))


def verify_signature_pair(
    signature_states: Sequence[PureState], pad: KeyBits, spec: MessageSpec, signer_key: KeyBits
) -> bool:
    """``verify_signature_rows`` over the held states' stacked amplitudes."""
    single = all(state.num_qubits == 1 for state in signature_states)
    # groups of mixed sizes do not stack; a 0-wide stack fails the width check
    held = np.array([state.amps for state in signature_states]) if single else np.empty(
        (len(signature_states), 0))
    return verify_signature_rows(held, pad, spec, signer_key)


def arbitrate(record: TrentRecord, alice_claim: Claim, bob_claim: Claim) -> Verdict:
    """Pure dispute function of the arbiter's record and the parties' claims.

    A failed verification bit is the one thing the arbiter witnessed
    himself. Anything about the teleport comparison or the published pad
    lies outside his record (no Bell results, no verifier qubits, no pad),
    so a live dispute there is undecidable for him.
    """
    if record.verified == 0:
        return Verdict.SIGNATURE_INVALID
    disputed = bob_claim.statement in _DISPUTE_STATEMENTS or (
        alice_claim.statement in _DISPUTE_STATEMENTS
    )
    if disputed:
        return Verdict.INCONCLUSIVE
    return Verdict.NO_DISPUTE
