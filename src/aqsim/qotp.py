"""Classical-keyed Pauli masking of qubit sequences (quantum one-time pad).

A key of 2n bits encrypts an n-qubit product sequence: qubit i (0-based)
is hit with sigma_x^{k[2i]} sigma_z^{k[2i+1]}, sigma_z first. Decryption
applies the exact operator inverse (sigma_x then sigma_z), so round trips
are amplitude-exact, not merely phase-equal.

``pair_transform`` is a second keyed mask in which qubit i draws its x bit
from position i and its z bit from i's pair partner (positions swap within
consecutive pairs: 0<->1, 2<->3, ...). It is provided for completeness and
is not used by the signing flow; the index convention is documented in the
README. All three run on the stacked rows, through ``statevector.pauli_rows``.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import statevector as sv
from .record import Frozen
from .statevector import PureState

ROLE_SIGNER = "signer-key"      # shared signer <-> arbiter
ROLE_VERIFIER = "verifier-key"  # shared verifier <-> arbiter
ROLE_PAD = "pad"                # signer's private message pad
ROLE_PEER = "peer-key"          # shared signer <-> verifier; reserved, unused by the flow
ROLE_EXTRACTED = "extracted"


class KeyTooShort(Exception):
    pass


class KeyBits(Frozen):
    """An ordered classical bit string with a protocol role tag.

    ``array`` holds the bits, a read-only uint8 array that ``key_paulis``
    indexes; ``bits``, the same bits as a tuple of ints, is made when first
    read. Length, equality, hashing and ``to_jsonable`` read the array.
    """

    def __init__(self, bits, role: str):
        bits = tuple(bits)
        if not {*bits} <= {0, 1}:
            raise ValueError("key bits must be 0/1")
        self._set(np.array(bits, dtype=np.uint8), role)

    def _set(self, array: np.ndarray, role: str) -> None:
        """Hold ``array``, a uint8 array of 0/1, and ``role``."""
        array.flags.writeable = False
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "role", role)

    @classmethod
    def _of_array(cls, array: np.ndarray, role: str) -> "KeyBits":
        """A key over an array of 0/1 integers, without a Python pass over the bits."""
        key = object.__new__(cls)
        key._set(array.astype(np.uint8), role)
        return key

    @cached_property  # writes the instance __dict__, past __setattr__
    def bits(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def _values(self) -> tuple:
        return self.role, self.array.tobytes()

    def __len__(self) -> int:
        return len(self.array)

    def to_hex(self) -> str:
        """Big-endian bit order: bit 0 is the MSB of the first hex digit.

        Lengths not divisible by 4 are zero-padded at the tail; the true
        length travels alongside in ``to_jsonable``.
        """
        return np.packbits(self.array).tobytes().hex()[:(len(self.array) + 3) // 4]

    def to_jsonable(self) -> dict:
        return {"role": self.role, "len": len(self.array), "hex": self.to_hex()}


def random_bits(length: int, role: str, rng: np.random.Generator) -> KeyBits:
    """Uniform key material from a seeded stream."""
    return KeyBits._of_array(rng.integers(0, 2, size=length), role)


def random_pad(n: int, rng: np.random.Generator) -> KeyBits:
    """A fresh 2n-bit message pad (one 2-bit block per qubit)."""
    if n < 1:
        raise ValueError("pad needs at least one qubit block")
    return random_bits(2 * n, ROLE_PAD, rng)


def key_paulis(key: KeyBits, indices) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli bits the key assigns to each qubit index i (0-based), as
    (x, z) bit arrays: x = k[2i], z = k[2i+1], gathered from the strided
    views of the key's even and odd bits. An index the key does not cover,
    past its end or below 0, raises ``KeyTooShort``."""
    indices = np.asarray(indices, dtype=np.intp)
    bits = key.array
    # viewed unsigned, an index below 0 lies past the end of any key
    if indices.size and indices.view(np.uintp).max() >= len(bits) // 2:
        index = int(indices.min()) if indices.min() < 0 else int(indices.max())
        raise KeyTooShort(f"key of {len(bits)} bits cannot cover qubit index {index}")
    return bits[0::2][indices], bits[1::2][indices]


def mask_rows(amps: np.ndarray, key: KeyBits, inverse: bool = False) -> np.ndarray:
    """``encrypt`` (or, with ``inverse``, ``decrypt``) over an (n, 2) stack of qubits."""
    x, z = key_paulis(key, np.arange(amps.shape[0]))  # raises KeyTooShort
    return sv.pauli_rows(amps, 0, x, z, inverse=inverse)


def _on_rows(seq: Sequence[PureState], transform) -> tuple[PureState, ...]:
    """``transform`` over the (n, 2) stack of a product sequence's qubits."""
    _check_product_sequence(seq)
    if not seq:
        return ()
    amps = transform(np.array([state.amps for state in seq]))
    return sv.states_from_rows([state.labels for state in seq], amps)


def _check_product_sequence(seq: Sequence[PureState]) -> None:
    for i, state in enumerate(seq):
        if state.num_qubits != 1:
            raise ValueError(f"sequence element {i} spans {state.num_qubits} qubits; "
                             "the pad acts on product sequences of single qubits")


def encrypt(seq: Sequence[PureState], key: KeyBits) -> tuple[PureState, ...]:
    """Mask each qubit with its positional Pauli; consumes 2 bits per qubit."""
    return _on_rows(seq, lambda amps: mask_rows(amps, key))


def decrypt(seq: Sequence[PureState], key: KeyBits) -> tuple[PureState, ...]:
    """Exact inverse of ``encrypt``: applies sigma_x then sigma_z per qubit."""
    return _on_rows(seq, lambda amps: mask_rows(amps, key, inverse=True))


def pair_transform(seq: Sequence[PureState], key: KeyBits) -> tuple[PureState, ...]:
    """Keyed mask with pair-swapped z bits: qubit i uses (x=k[i], z=k[i^1])."""
    def transform(amps):
        n = len(amps)
        needed = n + 1 if n % 2 else n
        if len(key) < needed:
            raise KeyTooShort(f"pair transform over {n} qubits needs {needed} key bits, "
                              f"have {len(key)}")
        i = np.arange(n)
        return sv.pauli_rows(amps, 0, key.array[i], key.array[i ^ 1], False)

    return _on_rows(seq, transform)
