"""Exact statevector algebra over small groups of labeled qubits.

The scalar functions work on one immutable ``PureState`` and return a new
one; they are the checked reference. Groups are capped at 4 qubits (the
protocol layer never entangles more), so all linear algebra runs on
vectors of length <= 16 and stays exact to float precision: Pauli action
is pure sign flips and index swaps, with no rounding at all.

The ``*_rows`` kernels do the same algebra on a stack of equally shaped
groups, one group per row of an (m, 2**k) array: the slot families that
``protocol.QuantumRegistry`` stores. Row r of a kernel's output is bit for
bit what the scalar function returns for row r alone, and every public
kernel runs the norm and finiteness invariant once over its whole output
(``check_rows``) in place of one ``PureState`` check per group. A Pauli
only swaps and negates floats, so ``_pauli_rows``, the unchecked core of
``pauli_rows``, keeps rows checked where they were made (the registry's)
on the unit sphere. The one batched Bell measurement, ``bell_measure_rows``,
takes each row's branch from a uniform draw, as ``bell_measure`` does;
forcing a branch is left to the scalar reference.

Global phase is never significant. All state equality goes through
``equal_up_to_phase``; nothing downstream may depend on a phase
convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .jsonutil import canonical_bytes

MAX_QUBITS = 4
NORM_TOL = 1e-12       # state norm invariant, checked after every operation
INPUT_NORM_TOL = 1e-9  # tolerance on caller-supplied amplitudes
RENORM_FLOOR = 1e-13   # below this, rescaling would only shuffle ulps
PROB_FLOOR = 1e-15     # below this a branch is treated as impossible


class StateError(Exception):
    """Base class for statevector failures."""


class NotNormalized(StateError):
    pass


class DuplicateLabel(StateError):
    pass


class LabelCollision(StateError):
    pass


class UnknownLabel(StateError):
    pass


class LabelMismatch(StateError):
    pass


class DegenerateState(StateError):
    """All measurement branches vanished: the state is corrupt."""


class ImpossibleOutcome(StateError):
    """A forced measurement outcome has (near-)zero probability."""


class TooManyQubits(StateError):
    pass


@dataclass(frozen=True)
class PauliBits:
    """Exponents of sigma_x^x sigma_z^z (sigma_z acts first)."""

    x: int
    z: int

    def __post_init__(self):
        if self.x not in (0, 1) or self.z not in (0, 1):
            raise ValueError(f"PauliBits components must be 0/1, got ({self.x}, {self.z})")

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0


class BellOutcome(Enum):
    """The four Bell-basis results with their 2-bit (x, z) encoding."""

    PHI_PLUS = ("phi-plus", 0, 0)
    PHI_MINUS = ("phi-minus", 0, 1)
    PSI_PLUS = ("psi-plus", 1, 0)
    PSI_MINUS = ("psi-minus", 1, 1)

    def __init__(self, token: str, x: int, z: int):
        self.token = token
        self.x = x
        self.z = z

    @classmethod
    def from_bits(cls, x: int, z: int) -> "BellOutcome":
        return _OUTCOME_BY_BITS[(x, z)]

    @classmethod
    def from_token(cls, token: str) -> "BellOutcome":
        return _OUTCOME_BY_TOKEN[token]


# Fixed sampling / probability-vector order.
BELL_ORDER = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

_OUTCOME_BY_BITS = {(o.x, o.z): o for o in BELL_ORDER}
_OUTCOME_BY_TOKEN = {o.token: o for o in BELL_ORDER}

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Rows follow BELL_ORDER; columns index the joint basis |b1 b2> as 2*b1 + b2.
_BELL_MATRIX = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) * _SQRT_HALF


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over an ordered group of labeled qubits.

    Amplitude index order follows label order: the first label is the most
    significant bit of the basis index.
    """

    labels: tuple
    amps: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate qubit labels in {labels}")
        if len(labels) > MAX_QUBITS:
            raise TooManyQubits(f"{len(labels)} qubits exceeds the {MAX_QUBITS}-qubit cap")
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 2 ** len(labels):
            raise StateError(
                f"amplitude count {amps.shape[0]} does not match {len(labels)} qubit(s)"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise StateError("non-finite amplitude")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NotNormalized(f"|amplitudes|^2 sums to {norm_sq!r}, not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _checked(cls, labels: tuple, amps: np.ndarray) -> "PureState":
        """A state over a row that ``check_rows`` has already checked.

        ``amps`` must be a read-only complex128 vector nobody else writes.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "labels", labels)
        object.__setattr__(state, "amps", amps)
        return state

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in state over {self.labels}") from None

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    def to_jsonable(self) -> dict:
        """Canonical form: label list plus (re, im) pairs in index order."""
        return {
            "labels": list(self.labels),
            "amps": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    def canonical_bytes(self) -> bytes:
        return canonical_bytes(self.to_jsonable())


def make_qubit(alpha, beta, label) -> PureState:
    """Single-qubit state alpha|0> + beta|1>; amplitudes must be normalized.

    Rescaling is skipped when the input already meets the norm invariant,
    so preparation is bitwise idempotent: feeding a prepared state's
    amplitudes back in reproduces them exactly.
    """
    return PureState((label,), np.array(_qubit_amps(alpha, beta)))


def _qubit_amps(alpha, beta) -> tuple[complex, complex]:
    alpha = complex(alpha)
    beta = complex(beta)
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > INPUT_NORM_TOL:
        raise NotNormalized(f"|alpha|^2 + |beta|^2 = {norm_sq!r}")
    if abs(norm_sq - 1.0) > RENORM_FLOOR:
        scale = 1.0 / math.sqrt(norm_sq)
        alpha *= scale
        beta *= scale
    return alpha, beta


def qubit_rows(coefficients) -> np.ndarray:
    """(n, 2) stack of ``make_qubit`` amplitudes, one (alpha, beta) per row.

    The rescaling stays the scalar formula, row by row, so each row is
    bitwise what ``make_qubit`` prepares.
    """
    return check_rows(np.array([_qubit_amps(a, b) for a, b in coefficients],
                               dtype=np.complex128).reshape(-1, 2))


# (|00> + |11>)/sqrt(2)
BELL_PAIR_AMPS = np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=np.complex128)
BELL_PAIR_AMPS.flags.writeable = False


def make_bell_pair(label_a, label_b) -> PureState:
    """The pair (|00> + |11>)/sqrt(2) over (label_a, label_b)."""
    if label_a == label_b:
        raise DuplicateLabel(f"bell pair needs distinct labels, got {label_a!r} twice")
    return PureState((label_a, label_b), BELL_PAIR_AMPS)


def tensor(a: PureState, b: PureState) -> PureState:
    """Product state with a's labels first."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelCollision(f"labels {sorted(map(repr, overlap))} appear on both sides")
    if a.num_qubits + b.num_qubits > MAX_QUBITS:
        raise TooManyQubits(
            f"tensor of {a.num_qubits}+{b.num_qubits} qubits exceeds the cap"
        )
    return PureState(a.labels + b.labels, np.kron(a.amps, b.amps))


def apply_pauli(state: PureState, label, p: PauliBits) -> PureState:
    """Apply sigma_z^z then sigma_x^x to one qubit. Exact: no rounding."""
    axis = state.index_of(label)
    if p.is_identity:
        return state
    t = state.amps.reshape((2,) * state.num_qubits).copy()
    if p.z:
        idx: list = [slice(None)] * state.num_qubits
        idx[axis] = 1
        t[tuple(idx)] = -t[tuple(idx)]
    if p.x:
        t = np.flip(t, axis=axis)
    return PureState(state.labels, t.reshape(-1))


def _bell_components(state: PureState, label1, label2) -> np.ndarray:
    if label1 == label2:
        raise DuplicateLabel("bell measurement needs two distinct labels")
    i1 = state.index_of(label1)
    i2 = state.index_of(label2)
    t = state.amps.reshape((2,) * state.num_qubits)
    m = np.moveaxis(t, (i1, i2), (0, 1)).reshape(4, -1)
    return _BELL_MATRIX.conj() @ m  # rows follow BELL_ORDER


def bell_probabilities(state: PureState, label1, label2) -> tuple[float, float, float, float]:
    """Analytic Bell-projection probabilities in BELL_ORDER (sum to 1)."""
    comp = _bell_components(state, label1, label2)
    probs = np.sum(np.abs(comp) ** 2, axis=1)
    return tuple(float(p) for p in probs)


def bell_measure(
    state: PureState,
    label1,
    label2,
    rng: np.random.Generator,
    forced: BellOutcome | None = None,
) -> tuple[BellOutcome, PureState]:
    """Project (label1, label2) onto the Bell basis.

    The outcome is sampled by inverse CDF over BELL_ORDER from the analytic
    probabilities; ``forced`` overrides sampling for table-driven checks and
    must name a branch with nonvanishing probability. Returns the outcome and
    the renormalized residual with the two measured labels removed.
    """
    comp = _bell_components(state, label1, label2)
    probs = np.sum(np.abs(comp) ** 2, axis=1)
    if not np.any(probs > PROB_FLOOR):
        raise DegenerateState("all four Bell branches vanished")
    if forced is not None:
        row = BELL_ORDER.index(forced)
        if probs[row] <= PROB_FLOOR:
            raise ImpossibleOutcome(f"forced outcome {forced.token} has probability {probs[row]!r}")
    else:
        u = rng.random()
        acc = 0.0
        # The probabilities may sum to a hair under 1; a draw above that sum
        # falls through to the last branch that can happen.
        row = max(r for r, p in enumerate(probs) if p > PROB_FLOOR)
        for r, p in enumerate(probs):
            acc += p
            if u < acc:
                row = r
                break
    residual_labels = tuple(l for l in state.labels if l not in (label1, label2))
    vec = comp[row] / math.sqrt(probs[row])
    return BELL_ORDER[row], PureState(residual_labels, vec)


def teleport_correction(outcome: BellOutcome) -> PauliBits:
    """Pauli bits that restore the teleported qubit, given the Bell result."""
    return PauliBits(outcome.x, outcome.z)


def _reordered_amps(b: PureState, labels: tuple) -> np.ndarray:
    if b.labels == labels:
        return b.amps
    if len(b.labels) != len(labels) or set(b.labels) != set(labels):
        raise LabelMismatch(f"label sets differ: {labels} vs {b.labels}")
    perm = tuple(b.labels.index(l) for l in labels)
    t = b.amps.reshape((2,) * b.num_qubits)
    return np.transpose(t, perm).reshape(-1)


def equal_up_to_phase(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    """True iff a unit scalar c exists with ||a - c*b|| <= tol.

    c is read off at b's largest-modulus amplitude, then forced to unit
    modulus; label order differences are canonicalized away first.
    """
    bb = _reordered_amps(b, a.labels)
    j = int(np.argmax(np.abs(bb)))
    aj = a.amps[j]
    if abs(aj) < PROB_FLOOR:
        c = 1.0  # dominant amplitudes disagree; no phase can fix it
    else:
        ratio = aj / bb[j]
        c = ratio / abs(ratio)
    return float(np.linalg.norm(a.amps - c * bb)) <= tol


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, clamped into [0, 1]."""
    bb = _reordered_amps(b, a.labels)
    value = float(abs(np.vdot(a.amps, bb)) ** 2)
    return min(1.0, max(0.0, value))


# --- batched kernels: one group per row --------------------------------------


def check_rows(amps: np.ndarray) -> np.ndarray:
    """The norm and finiteness invariant over every row of a stack of states.

    Returns ``amps`` so kernels can end with ``return check_rows(out)``.
    A fused sum over the floats first accepts every row within NORM_TOL / 2
    of 1: it rounds apart from the exact sum by some 50 ulps at 16
    amplitudes, far inside that margin. NaN and inf fail it, and any other
    stack gets the exact check, so the verdicts and messages are the exact check's.
    """
    if amps.ndim == 2 and amps.dtype == np.complex128 and amps.flags.c_contiguous:
        f = amps.view(np.float64)
        if abs(np.einsum("ij,ij->i", f, f) - 1.0).max(initial=0.0) < NORM_TOL / 2:
            return amps
    if not np.isfinite(amps).all():
        raise StateError("non-finite amplitude")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=1)
    bad = np.flatnonzero(np.abs(norm_sq - 1.0) > NORM_TOL)
    if bad.size:
        row = int(bad[0])
        raise NotNormalized(f"row {row}: |amplitudes|^2 sums to {float(norm_sq[row])!r}, not 1")
    return amps


def _num_qubits(amps: np.ndarray) -> int:
    return amps.shape[1].bit_length() - 1


def pauli_rows(amps: np.ndarray, axis: int, x, z, inverse: bool = False) -> np.ndarray:
    """Row r gets sigma_x^x[r] sigma_z^z[r] on qubit ``axis`` (sigma_z first).

    ``inverse`` applies the exact inverse instead: sigma_x first, then
    sigma_z, as ``qotp.decrypt`` does.
    """
    return check_rows(_pauli_rows(amps, axis, x, z, inverse))


def _pauli_rows(amps: np.ndarray, axis: int, x, z, inverse: bool = False) -> np.ndarray:
    """``pauli_rows`` without the closing check, for rows already checked."""
    m, dim = amps.shape
    t = amps.reshape(m, 1 << axis, 2, dim >> (axis + 1)).copy()
    x = np.asarray(x, dtype=bool)
    z = np.asarray(z, dtype=bool)
    if inverse:
        t[x] = t[x, :, ::-1]
    t[z, :, 1] = -t[z, :, 1]
    if not inverse:
        t[x] = t[x, :, ::-1]
    return t.reshape(m, dim)


def tensor_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-aligned product states: row r is kron(a[r], b[r]), a's qubits first."""
    if _num_qubits(a) + _num_qubits(b) > MAX_QUBITS:
        raise TooManyQubits(
            f"tensor of {_num_qubits(a)}+{_num_qubits(b)} qubits exceeds the cap"
        )
    return check_rows((a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1))


def bell_measure_rows(amps: np.ndarray, axis1: int, axis2: int, u) -> tuple:
    """Project qubits (axis1, axis2) of every row onto the Bell basis, row r
    taking its branch from the uniform draw ``u[r]``.

    Returns (rows, probs, residual): each row's branch index in BELL_ORDER,
    the (m, 4) analytic probabilities, and the renormalized residual stack
    with the two measured qubits removed. Row r is bit for bit what
    ``bell_measure`` returns on row r alone with the draw ``u[r]``, including
    its fall-through: a draw above a row's cumulative sum lands on its last
    branch with probability above PROB_FLOOR.
    """
    if axis1 == axis2:
        raise DuplicateLabel("bell measurement needs two distinct labels")
    m = amps.shape[0]
    t = amps.reshape((m,) + (2,) * _num_qubits(amps))
    stacked = np.moveaxis(t, (1 + axis1, 1 + axis2), (1, 2)).reshape(m, 4, -1)
    comp = _BELL_MATRIX.conj() @ stacked  # (m, 4, 2**(k-2)), BELL_ORDER rows
    probs = np.sum(np.abs(comp) ** 2, axis=2)
    possible = probs > PROB_FLOOR
    if not np.all(np.any(possible, axis=1)):
        raise DegenerateState("all four Bell branches vanished")
    hit = np.asarray(u)[:, None] < np.cumsum(probs, axis=1)
    last = 3 - np.argmax(possible[:, ::-1], axis=1)
    rows = np.where(hit.any(axis=1), hit.argmax(axis=1), last)
    idx = np.arange(m)
    return rows, probs, check_rows(comp[idx, rows] / np.sqrt(probs[idx, rows])[:, None])


def equal_up_to_phase_rows(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> list[bool]:
    """``equal_up_to_phase`` row by row over two stacks in the same label order.

    The phase and every row's distance are computed stacked. The stacked
    distance and the scalar ``np.linalg.norm`` sum the same (at most 16)
    squares in different orders, so they differ by a few ulps only: a row
    whose stacked distance lies outside ``tol * (1 +- 1e-12)`` is decided
    from it, exactly as the scalar norm would decide it. Rows inside that
    band, and rows whose distance is not finite, fall back to the scalar
    ``np.linalg.norm``. The band argument needs ``tol**2`` to be a normal
    double, which holds for any tol above 1e-150.
    """
    idx = np.arange(a.shape[0])
    j = np.argmax(np.abs(b), axis=1)
    aj = a[idx, j]
    # a subnormal aj can overflow the unit phase; np.where then picks 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = aj / b[idx, j]
        c = np.where(np.abs(aj) < PROB_FLOOR, 1.0, ratio / np.abs(ratio))
    diff = a - c[:, None] * b
    f = diff.view(np.float64)  # (re, im) per amplitude
    dist = np.sqrt(np.einsum("ij,ij->i", f, f))
    equal = dist < tol * (1.0 - 1e-12)
    unequal = (dist > tol * (1.0 + 1e-12)) & np.isfinite(dist)
    for r in np.flatnonzero(~(equal | unequal)).tolist():
        equal[r] = float(np.linalg.norm(diff[r])) <= tol
    return equal.tolist()


def fidelity_rows(a: np.ndarray, b: np.ndarray) -> list[float]:
    """``fidelity(a[r], b[r])`` row by row over two stacks in the same label order.

    The inner products are one batched matmul of a's conjugated rows, which
    runs the BLAS dot that ``np.vdot`` runs, so each product is bit for bit
    ``np.vdot``'s. The modulus, square and clamp stay the scalar's expression
    on each product: the stacked ``np.abs`` and square round differently.
    """
    dots = (a.conj()[:, None, :] @ b[:, :, None]).reshape(-1)
    return [min(1.0, max(0.0, float(abs(v) ** 2))) for v in dots]


def states_from_rows(labels, amps: np.ndarray) -> tuple[PureState, ...]:
    """One ``PureState`` per row of a checked stack; ``labels[r]`` names row r."""
    frozen = amps.copy()
    frozen.flags.writeable = False
    return tuple(PureState._checked(tuple(l), row) for l, row in zip(labels, frozen))
