import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from aqsim import statevector as sv
from aqsim.statevector import (
    BELL_ORDER,
    BellOutcome,
    DuplicateLabel,
    ImpossibleOutcome,
    LabelCollision,
    LabelMismatch,
    NotNormalized,
    PauliBits,
    PureState,
    TooManyQubits,
    UnknownLabel,
)

SQRT_HALF = 1 / math.sqrt(2)

ALL_PAULIS = [PauliBits(x, z) for x in (0, 1) for z in (0, 1)]


@st.composite
def qubit_coeffs(draw):
    vals = [draw(st.floats(-1, 1, allow_nan=False)) for _ in range(4)]
    a = complex(vals[0], vals[1])
    b = complex(vals[2], vals[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    assume(norm > 0.1)
    return a / norm, b / norm


@st.composite
def pure_states(draw, min_qubits=1, max_qubits=3):
    k = draw(st.integers(min_qubits, max_qubits))
    vals = [draw(st.floats(-1, 1, allow_nan=False)) for _ in range(2 ** (k + 1))]
    amps = np.array(vals[::2], dtype=complex) + 1j * np.array(vals[1::2])
    norm = np.linalg.norm(amps)
    assume(norm > 0.05)
    return PureState(tuple(f"q{i}" for i in range(k)), amps / norm)


# --- construction -----------------------------------------------------------


def test_make_qubit_basis_state():
    s = sv.make_qubit(1, 0, "q")
    assert s.labels == ("q",)
    np.testing.assert_allclose(s.amps, [1, 0])


def test_make_qubit_plus_state():
    s = sv.make_qubit(SQRT_HALF, SQRT_HALF, "q")
    np.testing.assert_allclose(s.amps, [SQRT_HALF, SQRT_HALF])


def test_make_qubit_complex_probabilities():
    # modulus-squared by hand: |0.6|^2 = 0.36, |0.8i|^2 = 0.64
    s = sv.make_qubit(0.6, 0.8j, "q")
    np.testing.assert_allclose(s.probabilities, [0.36, 0.64], atol=1e-15)


def test_make_qubit_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        sv.make_qubit(1, 1, "q")


def test_bell_pair_amplitudes():
    pair = sv.make_bell_pair("A", "B")
    np.testing.assert_allclose(pair.amps, [SQRT_HALF, 0, 0, SQRT_HALF])


def test_bell_pair_computational_distribution():
    # projector oracle: outcome probabilities are the squared moduli
    pair = sv.make_bell_pair("A", "B")
    np.testing.assert_allclose(pair.probabilities, [0.5, 0, 0, 0.5], atol=1e-15)


def test_bell_pair_measures_as_phi_plus():
    pair = sv.make_bell_pair("A", "B")
    assert sv.bell_probabilities(pair, "A", "B") == pytest.approx((1, 0, 0, 0), abs=1e-15)
    outcome, residual = sv.bell_measure(pair, "A", "B", np.random.default_rng(0))
    assert outcome is BellOutcome.PHI_PLUS
    assert residual.labels == ()
    assert residual.amps.shape == (1,)


def test_bell_pair_rejects_duplicate_label():
    with pytest.raises(DuplicateLabel):
        sv.make_bell_pair("A", "A")


def test_state_qubit_cap():
    with pytest.raises(TooManyQubits):
        PureState(tuple("abcde"), np.zeros(32))


# --- tensor -----------------------------------------------------------------


def test_tensor_basis_states():
    s = sv.tensor(sv.make_qubit(1, 0, "a"), sv.make_qubit(1, 0, "b"))
    np.testing.assert_allclose(s.amps, [1, 0, 0, 0])
    assert s.labels == ("a", "b")


def test_tensor_builds_three_particle_state():
    rng = np.random.default_rng(5)
    a, b = oracles.random_qubit(rng)
    state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
    expected = np.kron(np.array([a, b]), oracles.BELL_VECS["phi-plus"])
    np.testing.assert_allclose(state.amps, expected, atol=1e-15)


def test_tensor_rejects_label_collision():
    with pytest.raises(LabelCollision):
        sv.tensor(sv.make_qubit(1, 0, "a"), sv.make_qubit(1, 0, "a"))


@given(pure_states(max_qubits=2), pure_states(max_qubits=2))
def test_tensor_preserves_norm(a, b):
    b = PureState(tuple(f"r{i}" for i in range(b.num_qubits)), b.amps)
    t = sv.tensor(a, b)
    assert abs(np.sum(np.abs(t.amps) ** 2) - 1.0) <= 1e-12


# --- pauli action -----------------------------------------------------------


def test_pauli_identity_is_noop():
    s = sv.make_qubit(0.6, 0.8j, "q")
    assert sv.apply_pauli(s, "q", PauliBits(0, 0)) is s


def test_pauli_x_flips_basis():
    s = sv.apply_pauli(sv.make_qubit(1, 0, "q"), "q", PauliBits(1, 0))
    np.testing.assert_allclose(s.amps, [0, 1])


@given(qubit_coeffs())
def test_pauli_xz_matches_matrix_oracle(coeffs):
    a, b = coeffs
    s = sv.apply_pauli(sv.make_qubit(a, b, "q"), "q", PauliBits(1, 1))
    expected = oracles.pauli_matrix(1, 1) @ np.array([a, b])
    np.testing.assert_allclose(s.amps, expected, atol=1e-12)


def test_pauli_unknown_label():
    with pytest.raises(UnknownLabel):
        sv.apply_pauli(sv.make_qubit(1, 0, "q"), "r", PauliBits(1, 0))


@given(pure_states(), st.sampled_from(ALL_PAULIS))
def test_pauli_involution(state, p):
    twice = sv.apply_pauli(sv.apply_pauli(state, "q0", p), "q0", p)
    assert sv.equal_up_to_phase(state, twice, 1e-12)


@given(pure_states(), st.sampled_from(ALL_PAULIS))
def test_pauli_preserves_norm(state, p):
    out = sv.apply_pauli(state, "q0", p)
    assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) <= 1e-12


@given(pure_states(min_qubits=2), st.sampled_from(ALL_PAULIS))
def test_pauli_acts_on_interior_qubit_like_oracle(state, p):
    out = sv.apply_pauli(state, "q1", p)
    k = state.num_qubits
    full = oracles.pauli_matrix(p.x, p.z)
    for _ in range(k - 2):
        full = np.kron(full, oracles.I2)
    full = np.kron(oracles.I2, full)
    np.testing.assert_allclose(out.amps, full @ state.amps, atol=1e-12)


# --- bell measurement -------------------------------------------------------


@given(pure_states(min_qubits=2))
def test_bell_probabilities_sum_to_one(state):
    probs = sv.bell_probabilities(state, "q0", "q1")
    assert abs(sum(probs) - 1.0) <= 1e-12


def test_bell_measure_on_basis_00():
    # projector oracle on |00>: phi+ and phi- each 1/2, psi branches 0
    state = sv.tensor(sv.make_qubit(1, 0, "a"), sv.make_qubit(1, 0, "b"))
    expected = oracles.bell_probs(state.amps)
    probs = sv.bell_probabilities(state, "a", "b")
    for outcome, p in zip(BELL_ORDER, probs):
        assert p == pytest.approx(expected[outcome.token], abs=1e-15)
    assert probs == pytest.approx((0.5, 0.5, 0, 0), abs=1e-15)


def test_bell_measure_teleport_layout_quarters():
    rng = np.random.default_rng(7)
    a, b = oracles.random_qubit(rng)
    state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
    probs = sv.bell_probabilities(state, "P", "A")
    assert probs == pytest.approx((0.25,) * 4, abs=1e-12)


@pytest.mark.parametrize("outcome", BELL_ORDER)
def test_bell_measure_residual_matches_bracket(outcome):
    # residuals per forced branch: phi+ -> (a, b), phi- -> (a, -b),
    # psi+ -> (b, a), psi- -> (-b, a), checked against the 8-dim oracle
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = oracles.random_qubit(rng)
        state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
        got, residual = sv.bell_measure(state, "P", "A", rng, forced=outcome)
        assert got is outcome
        assert residual.labels == ("B",)
        _, expected = oracles.teleport_branches(a, b)[outcome.token]
        assert oracles.vec_equal_up_to_phase(residual.amps, expected, 1e-12)


def test_bell_measure_forced_impossible_outcome():
    pair = sv.make_bell_pair("A", "B")
    with pytest.raises(ImpossibleOutcome):
        sv.bell_measure(pair, "A", "B", np.random.default_rng(0), forced=BellOutcome.PSI_PLUS)


def test_bell_measure_unknown_label():
    pair = sv.make_bell_pair("A", "B")
    with pytest.raises(UnknownLabel):
        sv.bell_probabilities(pair, "A", "C")


def test_bell_measure_distribution_follows_probabilities():
    state = sv.tensor(sv.make_qubit(1, 0, "a"), sv.make_qubit(1, 0, "b"))
    rng = np.random.default_rng(13)
    seen = {sv.bell_measure(state, "a", "b", rng)[0] for _ in range(200)}
    assert seen == {BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS}


# --- teleport correction ----------------------------------------------------


def test_teleport_correction_table():
    assert sv.teleport_correction(BellOutcome.PHI_PLUS) == PauliBits(0, 0)
    assert sv.teleport_correction(BellOutcome.PHI_MINUS) == PauliBits(0, 1)
    assert sv.teleport_correction(BellOutcome.PSI_PLUS) == PauliBits(1, 0)
    assert sv.teleport_correction(BellOutcome.PSI_MINUS) == PauliBits(1, 1)


def test_teleport_correction_restores_all_outcomes():
    # apply-and-compare oracle over all four cases; psi- restores only up
    # to the global phase -1, which the comparison is blind to
    rng = np.random.default_rng(17)
    for outcome in BELL_ORDER:
        for _ in range(50):
            a, b = oracles.random_qubit(rng)
            state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
            _, residual = sv.bell_measure(state, "P", "A", rng, forced=outcome)
            fixed = sv.apply_pauli(residual, "B", sv.teleport_correction(outcome))
            assert oracles.vec_equal_up_to_phase(fixed.amps, np.array([a, b]), 1e-9)


def test_teleport_table_200_random_pairs():
    # the fixed-count table check: 200 random (alpha, beta), each forced branch
    rng = np.random.default_rng(19)
    target_tol = 1e-9
    for _ in range(200):
        a, b = oracles.random_qubit(rng)
        target = sv.make_qubit(a, b, "B")
        for outcome in BELL_ORDER:
            state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
            _, residual = sv.bell_measure(state, "P", "A", rng, forced=outcome)
            fixed = sv.apply_pauli(residual, "B", sv.teleport_correction(outcome))
            assert sv.equal_up_to_phase(fixed, target, target_tol)


def test_pauli_to_bell_bijection():
    # applying (x, z) to one half of phi+ lands on the outcome encoded (x, z)
    for p in ALL_PAULIS:
        state = sv.apply_pauli(sv.make_bell_pair("A", "B"), "A", p)
        probs = sv.bell_probabilities(state, "A", "B")
        expected = BellOutcome.from_bits(p.x, p.z)
        for outcome, prob in zip(BELL_ORDER, probs):
            assert prob == pytest.approx(1.0 if outcome is expected else 0.0, abs=1e-12)
        assert sv.equal_up_to_phase(
            state,
            PureState(("A", "B"), oracles.BELL_VECS[expected.token]),
            1e-12,
        )


def test_bell_encoding_is_bijective():
    encodings = {(o.x, o.z) for o in BellOutcome}
    assert encodings == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for o in BellOutcome:
        assert BellOutcome.from_bits(o.x, o.z) is o


# --- equality and fidelity --------------------------------------------------


@given(pure_states())
def test_equal_up_to_phase_reflexive(state):
    assert sv.equal_up_to_phase(state, state, 1e-12)


@given(pure_states())
def test_equal_up_to_phase_global_sign(state):
    negated = PureState(state.labels, -state.amps)
    assert sv.equal_up_to_phase(state, negated, 1e-12)


@given(pure_states(), st.floats(0, 2 * math.pi))
def test_equal_up_to_phase_any_global_phase(state, theta):
    rotated = PureState(state.labels, np.exp(1j * theta) * state.amps)
    assert sv.equal_up_to_phase(state, rotated, 1e-9)


def test_equal_up_to_phase_orthogonal():
    assert not sv.equal_up_to_phase(sv.make_qubit(1, 0, "q"), sv.make_qubit(0, 1, "q"), 1e-9)


def test_equal_up_to_phase_label_mismatch():
    with pytest.raises(LabelMismatch):
        sv.equal_up_to_phase(sv.make_qubit(1, 0, "q"), sv.make_qubit(1, 0, "r"), 1e-9)


def test_equal_up_to_phase_reorders_labels():
    pair = sv.make_bell_pair("A", "B")
    swapped = PureState(("B", "A"), pair.amps)  # phi+ is symmetric under swap
    assert sv.equal_up_to_phase(pair, swapped, 1e-12)
    asym = sv.apply_pauli(pair, "A", PauliBits(1, 0))  # psi+ still symmetric
    asym_swapped = PureState(("B", "A"), asym.amps)
    assert sv.equal_up_to_phase(asym, asym_swapped, 1e-12)


def test_fidelity_examples():
    s = sv.make_qubit(0.6, 0.8j, "q")
    assert sv.fidelity(s, s) == pytest.approx(1.0, abs=1e-15)
    plus = sv.make_qubit(SQRT_HALF, SQRT_HALF, "q")
    assert sv.fidelity(sv.make_qubit(1, 0, "q"), plus) == pytest.approx(0.5, abs=1e-12)
    assert sv.fidelity(sv.make_qubit(1, 0, "q"), sv.make_qubit(0, 1, "q")) == 0.0


@given(pure_states(), st.data())
def test_fidelity_matches_inner_product_oracle(a, data):
    # the second state is drawn at the first state's qubit count
    b = data.draw(pure_states(a.num_qubits, a.num_qubits))
    expected = abs(np.vdot(a.amps, b.amps)) ** 2
    assert sv.fidelity(a, b) == pytest.approx(expected, abs=1e-12)


# --- determinism ------------------------------------------------------------


def test_measurement_determinism_and_serialization():
    def run(seed):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0]))
        outcomes = []
        blobs = []
        for i in range(50):
            a, b = oracles.random_qubit(rng)
            state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
            outcome, residual = sv.bell_measure(state, "P", "A", rng)
            outcomes.append(outcome)
            blobs.append(residual.canonical_bytes())
        return outcomes, blobs

    assert run(123) == run(123)
    assert run(123)[0] != run(124)[0]


def test_serialization_has_17_digit_floats():
    s = sv.make_qubit(SQRT_HALF, SQRT_HALF, "q")
    blob = s.canonical_bytes().decode()
    token = format(float(s.amps[0].real), ".17g")
    assert len(token.replace("0.", "")) == 17
    assert blob == f'{{"labels":["q"],"amps":[[{token},0],[{token},0]]}}'
