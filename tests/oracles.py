"""Brute-force linear-algebra oracles, independent of the package's state
implementation.

Expected values in the tests come from these (or are frozen constants
computed by hand). Everything here is raw numpy: explicit 2x2 matrices,
kron products, and projector arithmetic, with its own phase-insensitive
comparison, so a bug in the package cannot hide in its own oracle.
"""
import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

BELL_VECS = {
    "phi-plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi-plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}
BELL_TOKENS = tuple(BELL_VECS)


def pauli_matrix(x: int, z: int) -> np.ndarray:
    """sigma_x^x sigma_z^z with sigma_z acting first."""
    m = I2
    if z:
        m = SZ @ m
    if x:
        m = SX @ m
    return m


def vec_equal_up_to_phase(u, v, tol: float = 1e-9) -> bool:
    """Phase blindness via overlap magnitude (a different method than the
    package's dominant-amplitude approach)."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < tol or nv < tol:
        return nu < tol and nv < tol
    return abs(abs(np.vdot(u, v)) / (nu * nv) - 1.0) <= tol


def bell_probs(vec4) -> dict:
    """Projection probabilities of a 2-qubit vector onto the Bell basis."""
    vec4 = np.asarray(vec4, dtype=complex).reshape(4)
    return {tok: float(abs(np.vdot(b, vec4)) ** 2) for tok, b in BELL_VECS.items()}


def teleport_branches(alpha: complex, beta: complex) -> dict:
    """Expand (alpha|0>+beta|1>) (x) phi-plus over the (first-two, third) split.

    Returns token -> (probability, normalized residual 2-vector on the third
    qubit).
    """
    state = np.kron(np.array([alpha, beta], dtype=complex), BELL_VECS["phi-plus"])
    m = state.reshape(4, 2)
    out = {}
    for tok, b in BELL_VECS.items():
        amp = b.conj() @ m
        p = float(np.sum(np.abs(amp) ** 2))
        out[tok] = (p, amp / np.sqrt(p) if p > 1e-30 else amp)
    return out


def random_qubit(rng) -> tuple[complex, complex]:
    """A Haar-ish random single-qubit amplitude pair."""
    while True:
        vals = rng.normal(size=4)
        a = complex(vals[0], vals[1])
        b = complex(vals[2], vals[3])
        norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
        if norm > 1e-6:
            return a / norm, b / norm


def generic_qubit(rng, margin: float = 0.05) -> tuple[complex, complex]:
    """Random qubit bounded away from every Pauli eigenstate."""
    while True:
        a, b = random_qubit(rng)
        cross = a.conjugate() * b
        axis_max = max(abs(2 * cross.real), abs(2 * cross.imag), abs(abs(a) ** 2 - abs(b) ** 2))
        if axis_max <= 1.0 - margin:
            return a, b


def screen_carriers(carriers, wavelength_filter: bool, pns: bool) -> list:
    """The two screening devices carrier by carrier: the wavelength filter
    flags each carrier off the signal band, then the photon-number splitter
    flags each carrier that the filter passed after the first in its time
    slot. Returns (device, carrier) pairs, the filter's first, each device's
    in stream order."""
    passed, flagged = list(carriers), []
    if wavelength_filter:
        flagged += [("wavelength-filter", c) for c in passed if c.band != "signal"]
        passed = [c for c in passed if c.band == "signal"]
    if pns:
        seen = set()
        for c in passed:
            if c.time_slot in seen:
                flagged.append(("pns", c))
            seen.add(c.time_slot)
    return flagged
