import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from aqsim import qotp
from aqsim import statevector as sv
from aqsim.adversary import Scenario
from aqsim.qotp import KeyBits, KeyTooShort
from aqsim.scenarios import run_scenario
from aqsim.statevector import BELL_ORDER, PauliBits

SQRT_HALF = 1 / math.sqrt(2)


def key(bits, role=qotp.ROLE_PAD):
    return KeyBits(tuple(bits), role)


def qubits(*coeff_pairs):
    return tuple(sv.make_qubit(a, b, f"q{i}") for i, (a, b) in enumerate(coeff_pairs))


@st.composite
def key_and_sequence(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    bits = tuple(draw(st.integers(0, 1)) for _ in range(2 * n))
    seq = []
    for i in range(n):
        vals = [draw(st.floats(-1, 1, allow_nan=False)) for _ in range(4)]
        a = complex(vals[0], vals[1])
        b = complex(vals[2], vals[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        assume(norm > 0.1)
        seq.append(sv.make_qubit(a / norm, b / norm, f"q{i}"))
    return key(bits), tuple(seq)


# --- encrypt ----------------------------------------------------------------


def test_encrypt_zero_key_is_identity():
    seq = qubits((0.6, 0.8j), (SQRT_HALF, SQRT_HALF))
    out = qotp.encrypt(seq, key([0, 0, 0, 0]))
    for before, after in zip(seq, out):
        np.testing.assert_array_equal(before.amps, after.amps)


def test_encrypt_single_x_bit():
    (out,) = qotp.encrypt(qubits((1, 0)), key([1, 0]))
    np.testing.assert_allclose(out.amps, [0, 1])


def test_encrypt_two_qubits_against_matrix_oracle():
    # key 0111: qubit 0 gets (x=0, z=1), qubit 1 gets (x=1, z=1)
    seq = qubits((1, 0), (SQRT_HALF, SQRT_HALF))
    out = qotp.encrypt(seq, key([0, 1, 1, 1]))
    np.testing.assert_allclose(out[0].amps, oracles.pauli_matrix(0, 1) @ seq[0].amps)
    np.testing.assert_allclose(out[1].amps, oracles.pauli_matrix(1, 1) @ seq[1].amps)
    minus = sv.make_qubit(SQRT_HALF, -SQRT_HALF, "q1")
    assert sv.equal_up_to_phase(out[1], minus, 1e-12)


def test_encrypt_key_too_short():
    with pytest.raises(KeyTooShort):
        qotp.encrypt(qubits((1, 0), (0, 1)), key([1, 0, 1]))


def test_encrypt_rejects_entangled_elements():
    with pytest.raises(ValueError):
        qotp.encrypt((sv.make_bell_pair("a", "b"),), key([0, 0]))


@given(key_and_sequence())
def test_encrypt_preserves_norm(pair):
    k, seq = pair
    for state in qotp.encrypt(seq, k):
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) <= 1e-12


# --- decrypt ----------------------------------------------------------------


@given(key_and_sequence())
def test_decrypt_inverts_encrypt_exactly(pair):
    k, seq = pair
    out = qotp.decrypt(qotp.encrypt(seq, k), k)
    for before, after in zip(seq, out):
        # amplitude-exact, not merely up to phase
        np.testing.assert_allclose(after.amps, before.amps, atol=1e-12)
        assert sv.fidelity(before, after) == pytest.approx(1.0, abs=1e-12)


def test_decrypt_zero_key_is_identity():
    seq = qubits((0.6, 0.8j))
    (out,) = qotp.decrypt(seq, key([0, 0]))
    np.testing.assert_array_equal(out.amps, seq[0].amps)


def test_decrypt_key_11_restores_message():
    # matrix oracle: encrypting (a, b) with (x=1, z=1) gives a|1> - b|0>;
    # decrypting that must return exactly (a, b)
    rng = np.random.default_rng(3)
    a, b = oracles.random_qubit(rng)
    scrambled = sv.make_qubit(-b, a, "q0")
    (out,) = qotp.decrypt((scrambled,), key([1, 1]))
    np.testing.assert_allclose(out.amps, oracles.pauli_matrix(0, 1) @ oracles.SX @ scrambled.amps)
    np.testing.assert_allclose(out.amps, [a, b], atol=1e-12)


# --- key composition --------------------------------------------------------


def test_double_encrypt_composes_as_xor():
    # exhaustive over all 16 single-qubit key pairs
    rng = np.random.default_rng(9)
    a, b = oracles.random_qubit(rng)
    for k1_bits in ((x, z) for x in (0, 1) for z in (0, 1)):
        for k2_bits in ((x, z) for x in (0, 1) for z in (0, 1)):
            seq = qubits((a, b))
            twice = qotp.encrypt(qotp.encrypt(seq, key(k1_bits)), key(k2_bits))
            combined_bits = (k1_bits[0] ^ k2_bits[0], k1_bits[1] ^ k2_bits[1])
            once = qotp.encrypt(seq, key(combined_bits))
            assert sv.equal_up_to_phase(twice[0], once[0], 1e-12)


def test_encrypt_commutes_with_teleport_correction():
    # masking the receiver's half before vs after the correction agrees up
    # to phase, since the correction is itself a Pauli
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = oracles.random_qubit(rng)
        bits = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        outcome = BELL_ORDER[int(rng.integers(0, 4))]
        state = sv.tensor(sv.make_qubit(a, b, "P"), sv.make_bell_pair("A", "B"))
        _, residual = sv.bell_measure(state, "P", "A", rng, forced=outcome)
        correction = sv.teleport_correction(outcome)

        mask_then_fix = sv.apply_pauli(
            sv.apply_pauli(residual, "B", PauliBits(*bits)), "B", correction
        )
        fix_then_mask = sv.apply_pauli(
            sv.apply_pauli(residual, "B", correction), "B", PauliBits(*bits)
        )
        assert sv.equal_up_to_phase(mask_then_fix, fix_then_mask, 1e-12)


# --- pair transform ---------------------------------------------------------


def test_pair_transform_zero_key_is_identity():
    seq = qubits((0.6, 0.8j), (1, 0))
    out = qotp.pair_transform(seq, key([0, 0]))
    for before, after in zip(seq, out):
        np.testing.assert_array_equal(before.amps, after.amps)


def test_pair_transform_index_mapping():
    # the pair rule on key 01: qubit 0 takes (x=k0, z=k1) = (0, 1),
    # qubit 1 takes (x=k1, z=k0) = (1, 0); see README for the convention
    seq = qubits((0.6, 0.8j), (0.6, 0.8j))
    out = qotp.pair_transform(seq, key([0, 1]))
    np.testing.assert_allclose(out[0].amps, oracles.pauli_matrix(0, 1) @ seq[0].amps)
    np.testing.assert_allclose(out[1].amps, oracles.pauli_matrix(1, 0) @ seq[1].amps)


def test_pair_transform_is_involutive_up_to_phase():
    rng = np.random.default_rng(31)
    seq = qubits(oracles.random_qubit(rng), oracles.random_qubit(rng))
    k = key([1, 1])
    twice = qotp.pair_transform(qotp.pair_transform(seq, k), k)
    for before, after in zip(seq, twice):
        assert sv.equal_up_to_phase(before, after, 1e-12)


def test_pair_transform_odd_length_needs_extra_bit():
    seq = qubits((1, 0), (0, 1), (1, 0))
    with pytest.raises(KeyTooShort):
        qotp.pair_transform(seq, key([1, 0, 1]))
    qotp.pair_transform(seq, key([1, 0, 1, 1]))  # n+1 bits suffice


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_transform_rows_are_the_scalar_paulis_bit_for_bit(n):
    # each row as the scalar apply_pauli with (x=k[i], z=k[i^1]) leaves it;
    # an odd n needs n+1 key bits
    rng = np.random.default_rng(400 + n)
    seq = qubits(*(oracles.random_qubit(rng) for _ in range(n)))
    for length in (n, n + 1):
        k = key(rng.integers(0, 2, length).tolist())
        if length < n + n % 2:
            with pytest.raises(KeyTooShort):
                qotp.pair_transform(seq, k)
            continue
        out = qotp.pair_transform(seq, k)
        assert len(out) == n
        for i, (state, got) in enumerate(zip(seq, out)):
            want = sv.apply_pauli(state, state.labels[0], PauliBits(k.bits[i], k.bits[i ^ 1]))
            assert got.labels == want.labels and got.amps.tobytes() == want.amps.tobytes()


# --- pad generation ---------------------------------------------------------


def test_random_pad_length_and_role():
    pad = qotp.random_pad(3, np.random.default_rng(0))
    assert len(pad) == 6
    assert pad.role == qotp.ROLE_PAD


def test_random_pad_reproducible():
    assert qotp.random_pad(5, np.random.default_rng(77)).bits == \
        qotp.random_pad(5, np.random.default_rng(77)).bits


def test_random_pad_blocks_uniform_within_5_sigma():
    # binomial bound oracle: each 2-bit block value has p = 1/4 over
    # N = 10^4 blocks, so |count - N/4| <= 5 * sqrt(N * 1/4 * 3/4)
    rng = np.random.default_rng(101)
    draws = 2500
    n = 4
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    for _ in range(draws):
        pad = qotp.random_pad(n, rng)
        for i in range(n):
            counts[2 * pad.bits[2 * i] + pad.bits[2 * i + 1]] += 1
    total = draws * n
    assert total == 10_000
    bound = 5 * math.sqrt(total * 0.25 * 0.75)
    for value, count in counts.items():
        assert abs(count - total / 4) <= bound, (value, count)


def test_random_pad_rejects_zero_qubits():
    with pytest.raises(ValueError):
        qotp.random_pad(0, np.random.default_rng(0))


# --- key serialization ------------------------------------------------------


def test_key_hex_round_trip():
    k = key([1, 0, 1, 1, 0, 1], qotp.ROLE_SIGNER)
    assert k.to_hex() == "b4"  # 101101 + 00 pad -> 0xb4
    assert KeyBits(tuple(map(int, format(int("b4", 16) >> 2, "06b"))), qotp.ROLE_SIGNER) == k


def loop_hex(bits):
    """The hex of ``bits`` folded one bit at a time, zero-padded at the tail."""
    if not bits:
        return ""
    pad = (-len(bits)) % 4
    value = 0
    for b in tuple(bits) + (0,) * pad:
        value = (value << 1) | b
    return format(value, f"0{(len(bits) + pad) // 4}x")


def test_key_hex_matches_the_bit_loop_at_every_length():
    rng = np.random.default_rng(70)
    for length in range(71):
        for bits in ((0,) * length, (1,) * length, tuple(rng.integers(0, 2, length).tolist())):
            assert key(bits).to_hex() == loop_hex(bits)


@given(st.lists(st.integers(0, 1), max_size=1100))
def test_key_hex_of_a_random_key_matches_the_bit_loop(bits):
    assert key(bits).to_hex() == loop_hex(bits)


@pytest.mark.parametrize("length", [0, 1, 7, 512, 1026])
def test_random_bits_are_the_key_of_the_generators_bits(length):
    rng, ref_rng = np.random.default_rng(length), np.random.default_rng(length)
    got = qotp.random_bits(length, qotp.ROLE_VERIFIER, rng)
    ref = KeyBits(ref_rng.integers(0, 2, size=length).tolist(), qotp.ROLE_VERIFIER)
    assert got == ref and got.role == ref.role
    assert all(type(b) is int for b in got.bits)
    assert got.array.dtype == np.uint8 and not got.array.flags.writeable
    assert got.array.tobytes() == ref.array.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_key_jsonable_fields():
    k = key([1, 1, 0, 0], qotp.ROLE_VERIFIER)
    assert k.to_jsonable() == {"role": qotp.ROLE_VERIFIER, "len": 4, "hex": "c"}


def test_key_rejects_non_bits():
    with pytest.raises(ValueError):
        KeyBits((0, 2), qotp.ROLE_PAD)



@pytest.mark.parametrize("bad", [2, -1, 0.5, "1", None])
def test_key_rejects_any_bit_but_0_and_1(bad):
    with pytest.raises(ValueError):
        KeyBits((0, bad, 1), qotp.ROLE_PAD)


def test_key_bits_are_ints_beside_a_read_only_array():
    k = KeyBits(np.array([1, 0, 1]), qotp.ROLE_PAD)
    assert k.bits == (1, 0, 1) and all(type(b) is int for b in k.bits)
    assert k.array.dtype == np.uint8 and k.array.tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        k.array[0] = 0
    assert k == KeyBits((True, 0, 1.0), qotp.ROLE_PAD)
    drawn = qotp.random_bits(9, qotp.ROLE_PAD, np.random.default_rng(3))
    assert all(type(b) is int for b in drawn.bits)
    assert drawn.array.tolist() == list(drawn.bits)


def test_a_key_over_an_array_builds_no_bit_tuple_until_bits_is_read():
    # length, equality, hashing, hex and the key's Paulis read the array
    drawn = qotp.random_bits(1026, qotp.ROLE_VERIFIER, np.random.default_rng(4))
    same = KeyBits._of_array(drawn.array, qotp.ROLE_VERIFIER)
    listed = KeyBits(drawn.array.tolist(), qotp.ROLE_VERIFIER)
    assert len(drawn) == 1026 and drawn == same == listed
    assert drawn != KeyBits((), qotp.ROLE_VERIFIER) and drawn != KeyBits._of_array(
        drawn.array, qotp.ROLE_SIGNER)
    assert hash(drawn) == hash(same) == hash(listed)
    assert drawn.to_jsonable() == listed.to_jsonable()
    qotp.key_paulis(drawn, range(513))
    assert "bits" not in vars(drawn) and "bits" not in vars(same)
    assert drawn.bits == tuple(drawn.array.tolist()) and vars(drawn)["bits"] is drawn.bits
    # nor does the flow read a key's bits, outside the Trojan extraction and a false pad
    result = run_scenario(Scenario.from_token("honest"), 8, 7, 0)
    assert [key for key in (*result.keys, result.true_pad) if "bits" in vars(key)] == []


def test_key_paulis_positions():
    k = key([1, 0, 0, 1])
    x, z = qotp.key_paulis(k, [0, 1])
    assert (x.tolist(), z.tolist()) == ([1, 0], [0, 1])
    with pytest.raises(KeyTooShort):
        qotp.key_paulis(k, [2])


def test_key_paulis_refuses_an_index_below_zero():
    # numpy would wrap -1 to the key's last two bits
    with pytest.raises(KeyTooShort, match="index -1"):
        qotp.key_paulis(key([1, 0, 0, 1]), [0, -1])
