"""Three-party signing flow: signer (alice), verifier (bob), arbiter (trent).

The signer masks her message with a private random pad, binds a second
masked copy under the signer/arbiter key, and teleports a third copy to
the verifier through pre-shared Bell pairs. The arbiter checks that the
bound copy matches what he can recompute, returns a verification bit, and
the verifier then compares his teleported copy against the delivered one.
On success the signer publishes the pad on an append-only public board and
the verifier unmasks the message.

Everything quantum lives in a ``QuantumRegistry``, stored by time slot as
slot families: one amplitude array per kind of group (the p, sa and b
streams, the teleport groups, the decoy pairs), with one label column per
axis. Every stream the flow touches is one column of the slot plan, and
each step acts on it with one batched ``statevector`` kernel. ``Carrier``
values are the channel-level handles (band + time slot) that the adversary
and defense layers manipulate; a ``CarrierStream`` names the columns it is
made of (``parts``). The arbiter's entire view of a run is the
``TrentRecord``; dispute arbitration is a pure function of that record
plus the parties' claims.
"""
from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import jsonutil, qotp
from . import statevector as sv
from .jsonutil import canonical_bytes
from .qotp import KeyBits
from .record import Frozen
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


class Claim(NamedTuple):
    party: str
    statement: str


class MessageSpec(Frozen):
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


# rows: a shorter block tests faster in Python (about 1.3 us a row) than in
# numpy (about 25 us a block)
_SHORT_BLOCK = 24


def random_message_spec(n: int, rng: np.random.Generator, generic_margin: float) -> MessageSpec:
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
    blocks = []
    need = n
    # One block of draws for the qubits still needed, tested as a whole and
    # kept in order: the same doubles, and the same accepted qubits, as one
    # normal(size=4) per try. A block of _SHORT_BLOCK rows or more is tested
    # in numpy, each float the scalar expression's bit for bit: np.hypot and
    # np.float_power run libm's hypot and pow per element, as abs(complex)
    # and ** do, and a / norm divides each component. A shorter block (the
    # few tries still needed, or a small n) walks the scalar expression.
    while need:
        draws = rng.normal(size=(need, 4))  # (re a, im a, re b, im b) per try
        if need < _SHORT_BLOCK:
            block = []
            for a, b in draws.view(np.complex128).tolist():
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
                block.append((a, b))
            block = np.array(block, dtype=np.complex128).reshape(-1, 2)
        else:
            squares = np.float_power(np.hypot(draws[:, 0::2], draws[:, 1::2]), 2)  # |a|**2, |b|**2
            norm = np.float_power(squares[:, 0] + squares[:, 1], 0.5)
            keep = norm >= 1e-6
            rows = draws[keep] / norm[keep, None]
            if generic_margin > 0.0:
                ar, ai, br, bi = rows.T
                squares = np.float_power(np.hypot(rows[:, 0::2], rows[:, 1::2]), 2)
                rows = rows[~((abs(ar * br + ai * bi) > half)
                              | (abs(ar * bi - ai * br) > half)
                              | (abs(squares[:, 0] - squares[:, 1]) > limit))]
            block = rows.view(np.complex128)
        blocks.append(block)
        need -= len(block)
    return MessageSpec(np.concatenate(blocks))


class Carrier(NamedTuple):
    """Channel-level handle for one photon: the label of the qubit it holds
    (its ``id``), its band and its time slot, the (id, band, slot) that
    ``jsonutil`` renders. A plain immutable tuple, so a stream of them costs
    a tuple per carrier.
    """

    id: str
    band: str
    time_slot: int

    @property
    def payload(self) -> str:
        """The label of the qubit the carrier holds, which is its ``id``;
        kept for ``perfbench/replay.py``, which reads it."""
        return self.id

    def meta(self) -> dict:
        return {"id": self.id, "band": self.band, "slot": self.time_slot}


class CarrierStream(tuple):
    """A stream of carriers, one transmission, that works out what the flow
    reads off it once and keeps it: its labels as one ``LabelColumn``, its
    slots and off-band flags as arrays, the canonical id, band and slot
    columns and text of its carriers, and its ``interleaved`` streams.
    ``parts`` are the registry columns it is made of: ``(self,)``, or the
    two streams of an ``interleaved`` one (the Trojan masked stream).

    The streams that n alone fixes come from ``slot_plan`` and serve every
    trial of that n, and so do the streams interleaved with them; a stream
    built in a trial keeps its fields for as long as the trial holds it.
    ``tuple()`` and slices of a stream are plain tuples, which keep nothing,
    and the packages refuse them: a stream is made with
    ``CarrierStream(carriers)``, which refuses an item that is not a
    ``Carrier`` with ``TypeError``.
    """

    _parts = None  # set on an interleaved stream only

    def __new__(cls, *carriers):  # no argument, or one iterable of carriers, as for tuple
        stream = super().__new__(cls, *carriers)
        if {*map(type, stream)} - {Carrier}:
            item = next(item for item in stream if type(item) is not Carrier)
            raise TypeError(f"a CarrierStream holds Carriers, not {type(item).__name__}")
        return stream

    @property
    def parts(self) -> tuple[CarrierStream, ...]:
        return self._parts or (self,)

    @cached_property
    def _interleavings(self) -> dict:
        return {}

    def interleaved(self, labels: LabelColumn, band: str) -> CarrierStream:
        """This stream with one carrier after each of its own, in the same
        slot: the i-th holds the qubit ``labels[i]`` and sits on
        ``band``. Its ``parts`` are this stream and the stream of the new
        carriers. It is made once per (labels, band) and kept with this
        stream, like its other fields: a plan stream's serves every trial of
        n and goes with the plan."""
        key = (labels, band)
        stream = self._interleavings.get(key)
        if stream is None:
            slots = self.slots.tolist()
            second = CarrierStream(map(Carrier._make, zip(labels, repeat(band), slots)))
            stream = CarrierStream(chain.from_iterable(zip(self, second, strict=True)))
            stream._parts = (self, second)
            self._interleavings[key] = stream
        return stream

    @cached_property
    def labels(self) -> LabelColumn:
        """Each carrier's id, the label of the qubit it holds."""
        return LabelColumn(map(itemgetter(0), self))

    @cached_property
    def slots(self) -> np.ndarray:
        """Each carrier's time slot, the index its key Pauli is drawn by (read-only)."""
        slots = np.fromiter(map(itemgetter(2), self), dtype=np.intp, count=len(self))
        slots.flags.writeable = False
        return slots

    @cached_property
    def off_band(self) -> np.ndarray:
        """Whether each carrier is off the signal band (read-only): the
        stream's band column, as the wavelength filter reads it."""
        off = np.fromiter(map(BAND_SIGNAL.__ne__, map(itemgetter(1), self)), dtype=bool,
                          count=len(self))
        off.flags.writeable = False
        return off

    @cached_property
    def columns(self) -> tuple[tuple, tuple, tuple]:
        """The canonical id, band and slot texts that a payload digest reads:
        the ids are the label texts, and each distinct band is quoted once."""
        bands = list(map(itemgetter(1), self))
        quoted = {band: jsonutil._encode_str(band) for band in set(bands)}
        return (self.labels.texts, tuple(map(quoted.__getitem__, bands)),
                tuple(map("%d".__mod__, map(itemgetter(2), self))))

    @cached_property
    def rendered(self) -> jsonutil.Rendered:
        """The canonical ``[{"id", "band", "slot"}, ...]`` that a send event logs."""
        return jsonutil.render_carriers(self.columns)


def carriers_of(ids: Iterable[str], band: str, first_slot: int) -> CarrierStream:
    """One carrier per id, in consecutive slots from ``first_slot``, each
    holding the qubit labeled with its id."""
    return CarrierStream(map(Carrier._make, zip(ids, repeat(band), count(first_slot))))


class SlotPlan(NamedTuple):
    """The labels and carrier streams that n alone fixes: every trial of n
    shares them, and only the amplitudes and keys differ between trials. A
    stream's labels are its ``labels`` column: the b halves' are
    ``halves.labels``."""

    alice: LabelColumn  # a_1..a_n, the signer's halves of the shared Bell pairs
    teleport: LabelColumn  # t_1..t_n, the copies the signer Bell-measures
    probes: LabelColumn  # d1_1..d1_n, the Trojan probes
    keepers: LabelColumn  # d2_1..d2_n, the halves the Trojan attacker keeps
    halves: CarrierStream  # b_1..b_n, the verifier's halves, slots 0..n-1
    masked: CarrierStream  # p_i, slots 0..n-1
    signature: CarrierStream  # sa_i, slots n..2n-1
    verification: CarrierStream  # v, slot 2n


@lru_cache(maxsize=1)
def slot_plan(n: int) -> SlotPlan:
    """The slot plan of n, built once per process and shared, read-only, by
    every trial of n. Only the last size's plan is kept: an ``aqsim run``
    batch, ``scripts/run_matrix.py`` and each benchmark workload run one n
    per process, and a trial asks only for its own n's plan. A plan holds
    about 1.8 KB per qubit once its streams and label columns have been read
    (7.4 MB at n=4,096)."""
    if n < 0:
        raise ValueError("need n >= 0")
    ids = range(1, n + 1)
    alice, teleport, probes, keepers = (
        LabelColumn(f"{tag}{i}" for i in ids) for tag in ("a", "t", "d1_", "d2_"))
    halves, masked, signature = (
        carriers_of((f"{tag}{i}" for i in ids), BAND_SIGNAL, first)
        for tag, first in (("b", 0), ("p", 0), ("sa", n)))
    return SlotPlan(
        alice=alice, teleport=teleport, probes=probes, keepers=keepers,
        halves=halves, masked=masked, signature=signature,
        verification=carriers_of(("v",), BAND_SIGNAL, 2 * n),
    )


class _Family:
    """m groups of k qubits each, stored as one (m, 2**k) amplitude array,
    and k ``LabelColumn``s of m ``str`` labels: axis j of row r is qubit
    ``columns[j][r]``. The labels are checked once, by ``_new_family``, and
    the rows where they are made (``add_columns``, the kernel that made
    rows for ``_add_checked_columns``, ``tensor_rows`` for a Bell merge,
    ``bell_measure_rows`` for the residual of live columns).
    After that only ``sv._pauli_rows`` replaces them, keeping each row on
    the unit sphere bit for bit. Families compare and hash by identity.
    """

    __slots__ = ("amps", "columns")

    def __init__(self, amps: np.ndarray, columns: tuple):
        self.amps = amps
        self.columns = columns  # k LabelColumns, one per axis


class LabelColumn(tuple):
    """A label column, the only kind the registry holds: a slot-plan column,
    a stream's labels, or a column ``_new_family`` copied into one. It keeps
    the canonical text of each label (``texts``), which
    ``jsonutil.render_states`` lays in, and its label set (``label_set``),
    each worked out on first read. The set is None unless every label is a
    ``str``, the only label type canonical text renders; ``_new_family``
    checks every family by these sets."""

    @cached_property
    def texts(self) -> tuple[str, ...]:
        return tuple(map(jsonutil._encode_str, self))

    @cached_property
    def label_set(self) -> frozenset | None:
        return frozenset(self) if {*map(type, self)} <= {str} else None


class QuantumRegistry:
    """The trial's qubits as slot families, each stream one whole live column.

    The protocol factors by time slot: slot i holds p_i and sa_i, the
    teleport group t_i (x) (a_i, b_i) and, under the Trojan attacks, a decoy
    pair. So groups of one shape live together in a family (``_Family``),
    and every stream the flow acts on is one label column of a live family.
    ``_columns`` maps each live column to its (family, axis). Every call
    finds each of its streams there by one lookup (a tuple key, so a list
    of the same labels finds it too) and runs one ``statevector`` kernel on
    it. Any other stream raises before any row is written or any draw is
    made: ``UnknownLabel`` if it names a label that is not live, else
    ``LabelMismatch``. A transmission of several columns goes in one part
    at a time (``CarrierStream.parts``).

    Writes replace a family's rows, and reads copy them (``stack`` hands
    the renderer a read-only view). A Bell measurement of two columns
    merges their families, drops both and registers the residual; the
    registry compares no states. ``state_of`` finds one label by a scan of
    the live columns, off the flow.
    """

    def __init__(self):
        self._columns: dict = {}  # each column of each live family -> (family, axis)

    def _column(self, labels: Sequence) -> tuple[_Family, int]:
        """The (family, axis) of the live column ``labels``."""
        key = labels if isinstance(labels, tuple) else tuple(labels)
        try:
            found = self._columns.get(key)
        except TypeError:  # an unhashable label, which no column holds
            found = None
        if found is None:
            live = set(chain.from_iterable(self._columns))
            for label in key:  # every live label is a str
                if type(label) is not str or label not in live:
                    raise UnknownLabel(f"label {label!r} not in registry")
            raise sv.LabelMismatch(f"a stream of {len(key)} labels is not one registered column")
        return found

    def add_columns(self, columns, amps: np.ndarray) -> None:
        """Register one new family: ``columns[j][r]`` names axis j of ``amps[r]``.
        A label must be a ``str``, the only label type canonical text renders.
        Every check runs before anything is registered."""
        columns, amps = self._new_family(columns, amps)
        self._register(columns, sv.check_rows(amps))

    def _add_checked_columns(self, columns, amps: np.ndarray) -> None:
        """``add_columns`` for rows that a public kernel has just checked: every
        check but ``check_rows``."""
        self._register(*self._new_family(columns, amps))

    def _new_family(self, columns, amps) -> tuple[tuple, np.ndarray]:
        """The columns and rows of a new family, as (k ``LabelColumn``s,
        (m, 2**k) complex stack), once they pass every check: the shape,
        that every label is a ``str``, that the k*m labels are distinct, and
        that none sits in a live column. A ``LabelColumn`` is kept as it is
        and any other column is copied into one; the label checks read the
        columns' label sets."""
        columns = tuple(c if type(c) is LabelColumn else LabelColumn(c) for c in columns)
        m = len(columns[0]) if columns else len(amps)
        amps = np.array(amps, dtype=np.complex128).reshape(m, -1)
        k = len(columns)
        if 2 ** k != amps.shape[1] or any(len(column) != m for column in columns):
            raise sv.StateError(f"{k} label columns of {[*map(len, columns)]} labels do not "
                                f"match {m} rows of {amps.shape[1]} amplitudes")
        if k > sv.MAX_QUBITS:
            raise sv.TooManyQubits(f"{k} qubits exceeds the {sv.MAX_QUBITS}-qubit cap")
        sets = [column.label_set for column in columns]
        live = [column.label_set for column in self._columns]
        if None in sets or sum(map(len, sets)) != k * m or not all(
                s.isdisjoint(t) for j, s in enumerate(sets) for t in sets[j + 1:] + live):
            raise self._refusal(columns)
        return columns, amps

    def _refusal(self, columns) -> Exception:
        """What is wrong with the labels of a refused family, named as its rows
        name them: first a label that is not a ``str``, then a label twice in
        one row (``DuplicateLabel``), then the first label that is live or
        in an earlier row (``LabelCollision``, worded for each)."""
        rows = list(zip(*columns))
        flat = list(chain.from_iterable(rows))
        for label in flat:
            if type(label) is not str:
                return TypeError(f"label {label!r} is not a str")
        for row in rows:
            if len(set(row)) != len(row):
                return sv.DuplicateLabel(f"duplicate qubit labels in {row}")
        live, seen = set(chain.from_iterable(self._columns)), set()
        for label in flat:
            if label in live:
                return LabelCollision(f"label {label!r} already registered")
            if label in seen:
                return LabelCollision(f"label {label!r} names two qubits of the family")
            seen.add(label)

    def _register(self, columns: tuple, amps: np.ndarray) -> None:
        """Add the checked family, and index each of its label columns. A Bell
        residual enters here directly: its columns were live until the
        measurement dropped them."""
        family = _Family(amps, columns)
        for axis, column in enumerate(columns):
            self._columns[column] = (family, axis)

    def state_of(self, label) -> PureState:
        """The state of ``label``'s group, found by a scan of the live columns."""
        for column, (family, _) in self._columns.items():
            if label in column:
                row = column.index(label)
                labels = tuple(axis[row] for axis in family.columns)
                return sv.states_from_rows([labels], family.amps[row:row + 1])[0]
        raise UnknownLabel(f"label {label!r} not in registry")

    def sequence(self, labels: Sequence) -> tuple[PureState, ...]:
        """The state of each label's group, in label order, for one column."""
        family, _ = self._column(labels)
        return sv.states_from_rows(list(zip(*family.columns)), family.amps)

    def amps_of(self, labels: Sequence) -> np.ndarray:
        """A copy of the rows of the column ``labels``, in label order."""
        return self._column(labels)[0].amps.copy()

    def stack(self, labels: Sequence) -> tuple[tuple, np.ndarray]:
        """The label columns and a read-only view of the rows of the column
        ``labels``' family, a stack as ``jsonutil.render_states`` reads it.
        Writes replace rows, so the view keeps the rows as they were read."""
        family, _ = self._column(labels)
        rows = family.amps.view()
        rows.flags.writeable = False
        return family.columns, rows

    def apply_paulis(self, labels: Sequence, x, z) -> None:
        """Qubit ``labels[i]`` of one column gets sigma_x^x[i] sigma_z^z[i],
        sigma_z first. Bits that do not align with the labels, or are not 0
        or 1, raise ``ValueError`` first."""
        x, z = np.asarray(x), np.asarray(z)
        if x.shape != (len(labels),) or z.shape != x.shape:
            raise ValueError("labels, x and z must align")
        # viewed unsigned, x | z exceeds 1 wherever x or z holds a bit other than 0 or 1
        if x.size and (x.dtype.kind not in "biu" or z.dtype.kind not in "biu"
                       or (either := x | z).view(f"u{either.itemsize}").max() > 1):
            raise ValueError("Pauli bits must be 0/1")
        family, axis = self._column(labels)
        family.amps = sv._pauli_rows(family.amps, axis, x, z, False)

    def bell_measure_many(
        self, labels1: Sequence, labels2: Sequence, rng: np.random.Generator
    ) -> tuple[list[BellOutcome], np.ndarray]:
        """Bell-measure each pair (labels1[i], labels2[i]) of two columns: the
        outcomes, and the read-only (m, 4) branch probabilities (BELL_ORDER
        columns) they were drawn from. One column twice raises
        ``DuplicateLabel``. The pairs draw one uniform each, in pair order,
        from one ``rng.random(m)`` call: the doubles of m
        ``statevector.bell_measure`` calls.
        """
        if len(labels1) != len(labels2):
            raise ValueError("labels1 and labels2 must align")
        if not labels1:
            return [], np.empty((0, 4))
        (f1, axis1), (f2, axis2) = self._column(labels1), self._column(labels2)
        if f1 is not f2:  # row r of each family holds the pair of row r
            amps, axis2, columns = (sv.tensor_rows(f1.amps, f2.amps), len(f1.columns) + axis2,
                                    f1.columns + f2.columns)
        elif axis1 != axis2:
            amps, columns = f1.amps, f1.columns
        else:
            raise sv.DuplicateLabel("bell measurement needs two distinct labels")
        rows, probs, residual = sv.bell_measure_rows(amps, axis1, axis2, rng.random(len(labels1)))
        probs.flags.writeable = False
        for column in columns:
            del self._columns[column]
        keep = tuple(column for j, column in enumerate(columns) if j not in (axis1, axis2))
        if keep:  # live until the del above, and bell_measure_rows checked the residual
            self._register(keep, residual)
        return [sv.BELL_ORDER[r] for r in rows.tolist()], probs


def _check_streams(package, names) -> None:
    """Refuse any of a package's ``names`` fields that is not a ``CarrierStream``."""
    for name in names:
        value = getattr(package, name)
        if type(value) is not CarrierStream:
            raise TypeError(f"{name} must be a CarrierStream, got {type(value).__name__}")


class SignaturePackage(Frozen):
    """What the signer ships: masked message carriers, bound-signature
    carriers, and her Bell results (one per message qubit), a tuple."""

    __slots__ = ("masked", "signature", "bell_results")

    def __init__(self, masked: CarrierStream, signature: CarrierStream, bell_results):
        object.__setattr__(self, "masked", masked)
        object.__setattr__(self, "signature", signature)
        _check_streams(self, ("masked", "signature"))
        object.__setattr__(self, "bell_results", tuple(bell_results))
        if len(self.signature) != len(self.bell_results):
            raise ValueError("signature carriers and bell results must align")
        if len(self.signature) == 0 or len(self.masked) == 0:
            raise ValueError("empty package")

    @property
    def n(self) -> int:
        return len(self.signature)


class CipherPayload(namedtuple("CipherPayload", ("masked", "signature", "verification"),
                               defaults=(CarrierStream(),))):
    """The carrier streams of one quantum ciphertext transmission: masked,
    signature and, on the return leg, the one-carrier verification stream
    (empty when left out). A tuple, for its default stream."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        payload = super().__new__(cls, *args, **kwargs)
        _check_streams(payload, payload._fields)
        return payload

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
        texts = jsonutil.render_states(  # the streams in one call, columns off each stream
            [(*registry.stack(s.labels), s.columns) for s in self.streams() if s])
        return hashlib.sha256(("[" + ",".join(texts) + "]").encode("ascii")).hexdigest()


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


class TrentRecord(NamedTuple):
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


class ProtocolKeys(NamedTuple):
    signer: KeyBits
    verifier: KeyBits
    peer: KeyBits


class SignerPrivate(Frozen):
    """What the signer keeps to herself after signing, besides the pad:
    ``probabilities``, the read-only (n, 4) array of Bell branch
    probabilities her measurements drew from (BELL_ORDER columns), which
    the transcript renders as it is. Compared and hashed by identity."""

    __slots__ = ("probabilities", "max_probability_deviation")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, probabilities: np.ndarray, max_probability_deviation: float):
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "max_probability_deviation", max_probability_deviation)

    @property
    def outcome_probabilities(self) -> tuple[tuple[float, ...], ...]:
        """``probabilities`` as one tuple of Python floats per qubit."""
        return tuple(map(tuple, self.probabilities.tolist()))


class CompareReport(NamedTuple):
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
    registry.add_columns((plan.alice, plan.halves.labels), np.tile(sv.BELL_PAIR_AMPS, (n, 1)))
    return plan.alice, plan.halves.labels


def alice_sign(
    spec: MessageSpec,
    signer_key: KeyBits,
    rng: np.random.Generator,
    registry: QuantumRegistry,
    alice_labels: Sequence,
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
    pad = qotp.random_pad(n, rng)

    masked = qotp.mask_rows(spec.amps, pad)
    signature = qotp.mask_rows(masked, signer_key)
    plan = slot_plan(n)
    # qotp.mask_rows checked both stacks
    registry._add_checked_columns((plan.masked.labels,), masked)
    registry._add_checked_columns((plan.signature.labels,), signature)
    registry._add_checked_columns((plan.teleport,), masked)

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
    private = SignerPrivate(probabilities=probs, max_probability_deviation=max_dev)
    return package, pad, private


def _mask_streams(
    registry: QuantumRegistry,
    streams: Sequence[CarrierStream],
    key: KeyBits,
    inverse: bool,
) -> None:
    """Apply each slot's positional key Pauli to every carrier in the slot,
    one part of a stream (``parts``, a registry column) at a time. Honest
    apparatus keys by time slot, which is exactly why an adversarial carrier
    sharing a slot picks up the same keyed operation. The streams are one
    transmission: every part is resolved and keyed before the first write,
    so a part that is no live column, a column in two parts
    (``DuplicateLabel``) or a slot the key does not cover (``KeyTooShort``)
    raises with nothing masked.
    """
    parts = [part for stream in streams for part in stream.parts]
    targets = [registry._column(part.labels) for part in parts]
    if len(set(targets)) != len(targets):
        raise sv.DuplicateLabel("a transmission keys each column once")
    paulis = [qotp.key_paulis(key, part.slots) for part in parts]
    for (family, axis), (x, z) in zip(targets, paulis):  # a key's bits, one per label
        family.amps = sv._pauli_rows(family.amps, axis, x, z, inverse)


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
    if not n:
        raise ProtocolError("empty payload")
    if payload.verification:
        raise ProtocolError("the arbiter's payload already carries a verification qubit")

    def decrypted(carriers):  # unmasked by slot, as _mask_streams keys the channel
        x, z = qotp.key_paulis(verifier_key, carriers.slots)
        return sv._pauli_rows(_qubit_rows(registry, carriers.labels), 0, x, z, inverse=True)

    masked, signature = decrypted(payload.masked), decrypted(payload.signature)

    # Bind the received masked copy under the signer key and compare per qubit.
    verified = int(all(sv.equal_up_to_phase_rows(qotp.mask_rows(masked, signer_key), signature,
                                                 EQUALITY_TOL)))

    verification = slot_plan(n).verification
    registry.add_columns((verification.labels,), [[1 - verified, verified]])
    _mask_streams(registry, [verification], verifier_key, inverse=False)

    # The record in one render: the arbiter wrote no carrier but v, so the
    # received streams' rows read as they arrived, and the returned digest's
    # text is the received one with v's row added before the closing "]".
    *received, returned_v, masked_text, signature_text = jsonutil.render_states(
        [(*registry.stack(s.labels), s.columns) for s in payload.streams() + (verification,)]
        + [((payload.masked.labels,), masked, ()), ((payload.signature.labels,), signature, ())])
    rows_hash = hashlib.sha256(("[" + ",".join(received)).encode("ascii"))
    received_hash = rows_hash.copy()
    received_hash.update(b"]")
    rows_hash.update(("," + returned_v + "]").encode("ascii"))
    return CipherPayload(payload.masked, payload.signature, verification), TrentRecord(
        received_digest=received_hash.hexdigest(),
        masked_snapshot=jsonutil.Rendered("[" + masked_text + "]"),
        signature_snapshot=jsonutil.Rendered("[" + signature_text + "]"),
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
