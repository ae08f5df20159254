"""The batched ``*_rows`` kernels against the scalar reference and the oracles.

Each kernel must give, row for row, exactly the amplitudes (bit for bit)
that the scalar ``statevector`` function gives on that row alone, and
agree with the brute-force matrices of ``oracles``. A corrupted row must
still trip the norm and finiteness invariant.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from aqsim import statevector as sv
from aqsim.jsonutil import canonical_json
from aqsim.protocol import QuantumRegistry
from aqsim.statevector import BELL_ORDER, BellOutcome, PauliBits, PureState

UNIT = st.floats(-1, 1, allow_nan=False)


@st.composite
def stacks(draw, min_qubits=1, max_qubits=4, rows=None):
    """(m, 2**k) stack of normalized random states; m is drawn unless given."""
    k = draw(st.integers(min_qubits, max_qubits))
    m = rows if rows is not None else draw(st.integers(1, 5))
    vals = np.array(draw(st.lists(UNIT, min_size=m * 2 ** (k + 1), max_size=m * 2 ** (k + 1))))
    amps = (vals[0::2] + 1j * vals[1::2]).reshape(m, 2 ** k)
    norms = np.linalg.norm(amps, axis=1)
    assume(np.all(norms > 0.05))
    return amps / norms[:, None]


def bits(draw, m):
    return np.array(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))


def labels_for(k, tag="q"):
    return tuple(f"{tag}{j}" for j in range(k))


def state_of_row(amps, r, tag="q"):
    return PureState(labels_for(int(math.log2(amps.shape[1])), tag), amps[r])


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.float64), np.asarray(b).view(np.float64))


class StubRng:
    """Returns preset uniforms, like ``Generator.random()``."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def draw_for(outcome):
    """The uniform draw that picks ``outcome`` from four equally likely branches."""
    return (BELL_ORDER.index(outcome) + 0.5) / 4


def measure(registry, label1, label2, rng):
    """One pair, measured through the batched call."""
    return registry.bell_measure_many([label1], [label2], rng)[0][0]


def bell_pair_registry(*pairs):
    """A registry holding one Bell pair (a, b) per family, for each given pair."""
    registry = QuantumRegistry()
    for pair in pairs:
        registry.add_rows([pair], sv.BELL_PAIR_AMPS[None, :])
    return registry


# --- Pauli by key bits --------------------------------------------------------


@given(st.data())
def test_pauli_rows_match_scalar_and_oracle(data):
    amps = data.draw(stacks())
    m, k = amps.shape[0], int(math.log2(amps.shape[1]))
    axis = data.draw(st.integers(0, k - 1))
    x, z = bits(data.draw, m), bits(data.draw, m)
    inverse = data.draw(st.booleans())
    out = sv.pauli_rows(amps, axis, x, z, inverse=inverse)
    for r in range(m):
        state = state_of_row(amps, r)
        label = f"q{axis}"
        if inverse:
            ref = sv.apply_pauli(state, label, PauliBits(int(x[r]), 0))
            ref = sv.apply_pauli(ref, label, PauliBits(0, int(z[r])))
            matrix = oracles.pauli_matrix(int(x[r]), int(z[r])).conj().T
        else:
            ref = sv.apply_pauli(state, label, PauliBits(int(x[r]), int(z[r])))
            matrix = oracles.pauli_matrix(int(x[r]), int(z[r]))
        assert same_bits(out[r], ref.amps)
        full = np.eye(1)
        for j in range(k):
            full = np.kron(full, matrix if j == axis else oracles.I2)
        assert oracles.vec_equal_up_to_phase(out[r], full @ amps[r], 1e-12)


@given(stacks(max_qubits=3))
def test_pauli_rows_inverse_undoes_forward_exactly(amps):
    m = amps.shape[0]
    x = np.arange(m) % 2
    z = (np.arange(m) // 2) % 2
    back = sv.pauli_rows(sv.pauli_rows(amps, 0, x, z), 0, x, z, inverse=True)
    assert same_bits(back, amps)


# --- row-aligned tensor -------------------------------------------------------


@given(st.data())
def test_tensor_rows_match_scalar_and_kron(data):
    a = data.draw(stacks(max_qubits=2))
    m = a.shape[0]
    kb = data.draw(st.integers(1, 4 - int(math.log2(a.shape[1]))))
    b = data.draw(stacks(min_qubits=kb, max_qubits=kb, rows=m))
    out = sv.tensor_rows(a, b)
    for r in range(m):
        ref = sv.tensor(state_of_row(a, r, "a"), state_of_row(b, r, "b"))
        assert same_bits(out[r], ref.amps)
        assert np.allclose(out[r], np.kron(a[r], b[r]), atol=1e-15)


def test_tensor_rows_respects_the_cap():
    pairs = np.tile(sv.BELL_PAIR_AMPS, (2, 1))
    three = sv.tensor_rows(sv.qubit_rows([(1, 0), (0, 1)]), pairs)
    assert three.shape == (2, 8)
    with pytest.raises(sv.TooManyQubits):
        sv.tensor_rows(three, pairs)


# --- Bell measurement: branch, probabilities, residual --------------------------


@given(st.data())
def test_bell_rows_match_scalar_with_same_draw(data):
    amps = data.draw(stacks(min_qubits=2))
    m, k = amps.shape[0], int(math.log2(amps.shape[1]))
    axis1 = data.draw(st.integers(0, k - 1))
    axis2 = data.draw(st.integers(0, k - 1).filter(lambda a: a != axis1))
    u = np.array(data.draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=m,
                                    max_size=m)))
    rows, probs, residual = sv.bell_measure_rows(amps, axis1, axis2, u)
    for r in range(m):
        state = state_of_row(amps, r)
        l1, l2 = f"q{axis1}", f"q{axis2}"
        assert tuple(probs[r].tolist()) == sv.bell_probabilities(state, l1, l2)
        outcome, ref = sv.bell_measure(state, l1, l2, StubRng(u[r]))
        assert BELL_ORDER[rows[r]] is outcome
        assert same_bits(residual[r], ref.amps)
        if k == 2:
            expected = oracles.bell_probs(amps[r])
            assert np.allclose(probs[r], [expected[o.token] for o in BELL_ORDER], atol=1e-12)


def test_bell_rows_match_teleport_oracle():
    rng = np.random.default_rng(23)
    coeffs = [oracles.random_qubit(rng) for _ in range(16)]
    qubits = sv.qubit_rows(coeffs)
    groups = sv.tensor_rows(qubits, np.tile(sv.BELL_PAIR_AMPS, (16, 1)))
    for outcome in BELL_ORDER:
        # every teleport branch has probability 1/4, so this draw picks it
        rows, probs, residual = sv.bell_measure_rows(groups, 0, 1,
                                                     np.full(16, draw_for(outcome)))
        assert [BELL_ORDER[r] for r in rows] == [outcome] * 16
        for r, (a, b) in enumerate(coeffs):
            p, expected = oracles.teleport_branches(a, b)[outcome.token]
            assert probs[r, rows[r]] == pytest.approx(p, abs=1e-12)
            assert oracles.vec_equal_up_to_phase(residual[r], expected, 1e-12)


# --- the sampling fall-through --------------------------------------------------

TOP_DRAW = 1.0 - 2.0 ** -53  # the largest double Generator.random() can return


@pytest.mark.parametrize("outcome", BELL_ORDER)
def test_scalar_bell_measure_top_draw_lands_on_a_possible_branch(outcome):
    # a definite Bell state's probabilities sum to 0.9999999999999996, so
    # the top draw lies above the cumulative sum and must fall through
    state = sv.apply_pauli(sv.make_bell_pair("A", "B"), "A", PauliBits(outcome.x, outcome.z))
    got, residual = sv.bell_measure(state, "A", "B", StubRng(TOP_DRAW))
    assert got is outcome
    assert residual.labels == ()


@pytest.mark.parametrize("outcome", BELL_ORDER)
def test_batched_bell_sample_top_draw_lands_on_a_possible_branch(outcome):
    pairs = np.tile(sv.BELL_PAIR_AMPS, (3, 1))
    pairs = sv.pauli_rows(pairs, 0, [outcome.x] * 3, [outcome.z] * 3)
    rows, _, residual = sv.bell_measure_rows(pairs, 0, 1, np.full(3, TOP_DRAW))
    assert [BELL_ORDER[r] for r in rows] == [outcome] * 3
    assert residual.shape == (3, 1)  # and the kernel checked it finite and normalized


@pytest.mark.parametrize("outcome", BELL_ORDER)
def test_registry_bell_measure_top_draw(outcome):
    registry = bell_pair_registry(("A", "B"))
    registry.apply_paulis(["A"], [outcome.x], [outcome.z])
    assert measure(registry, "A", "B", StubRng(TOP_DRAW)) is outcome


# --- the invariant still runs -------------------------------------------------


def corrupted(amps, row, how):
    bad = amps.copy()
    bad[row] = np.nan if how == "nan" else bad[row] * 1.1
    return bad


@pytest.mark.parametrize("how", ["nan", "scaled"])
def test_check_rows_rejects_a_corrupted_row(how):
    amps = np.tile(sv.BELL_PAIR_AMPS, (4, 1))
    sv.check_rows(amps)
    with pytest.raises(sv.StateError):
        sv.check_rows(corrupted(amps, 2, how))


@pytest.mark.parametrize("how", ["nan", "scaled"])
def test_batched_ops_raise_on_a_corrupted_row(how):
    pairs = corrupted(np.tile(sv.BELL_PAIR_AMPS, (4, 1)), 3, how)
    qubits = corrupted(sv.qubit_rows([(1, 0)] * 4), 1, how)
    with pytest.raises(sv.StateError):
        sv.pauli_rows(pairs, 1, [0, 0, 0, 0], [0, 0, 0, 1])
    with pytest.raises(sv.StateError):
        sv.pauli_rows(qubits, 0, [0] * 4, [0] * 4)
    with pytest.raises(sv.StateError):
        sv.tensor_rows(qubits, pairs)
    registry = QuantumRegistry()
    with pytest.raises(sv.StateError):
        registry.add_rows([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")], pairs)


def test_bell_residual_raises_on_a_corrupted_row():
    pairs = np.tile(sv.BELL_PAIR_AMPS, (2, 1))
    u = np.full(2, 0.5)
    # a NaN row has no branch above PROB_FLOOR
    with pytest.raises(sv.DegenerateState):
        sv.bell_measure_rows(corrupted(pairs, 1, "nan"), 0, 1, u)
    # an overflowing row has an infinite branch, whose residual is all zeros:
    # only the invariant on the residual stack can catch it
    huge = pairs.copy()
    huge[1] *= 1e200
    with np.errstate(over="ignore"), pytest.raises(sv.NotNormalized):
        sv.bell_measure_rows(huge, 0, 1, u)


def exact_check_rows(amps):
    """``check_rows`` without its fused pass: the reference for its verdicts."""
    if not np.isfinite(amps).all():
        raise sv.StateError("non-finite amplitude")
    norm_sq = np.sum(np.abs(amps) ** 2, axis=1)
    bad = np.flatnonzero(np.abs(norm_sq - 1.0) > sv.NORM_TOL)
    if bad.size:
        row = int(bad[0])
        raise sv.NotNormalized(f"row {row}: |amplitudes|^2 sums to {float(norm_sq[row])!r}, not 1")
    return amps


def verdict(check, amps):
    """None if ``check`` accepts ``amps``, else the type and message it raises."""
    try:
        check(amps)
    except sv.StateError as error:
        return type(error), str(error)
    return None


@pytest.mark.parametrize("width", [2, 4, 16])
@pytest.mark.parametrize("edge", [1.0, 0.5])  # NORM_TOL, and the fused pass's NORM_TOL / 2
def test_check_rows_decides_the_norm_edge_like_the_exact_check(width, edge):
    rng = np.random.default_rng(width)
    unit = rng.normal(size=(1, 2 * width)).view(np.complex128)
    unit /= np.linalg.norm(unit)
    verdicts = set()
    for sign in (1, -1):
        for rel in (-1e-6, 0.0, 1e-6):
            row = unit * math.sqrt(1.0 + sign * sv.NORM_TOL * edge * (1.0 + rel))
            for ulps in range(-8, 9):  # sweep the squared norm over the edge
                amps = np.concatenate([unit, row * (1.0 + ulps * 2.0 ** -53), unit])
                got = verdict(sv.check_rows, amps)
                assert got == verdict(exact_check_rows, amps)
                verdicts.add(got is None)
    assert verdicts == ({True, False} if edge == 1.0 else {True})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [2, 3, 7])  # a real part, an imaginary part, the last float
def test_check_rows_raises_on_a_non_finite_float_like_the_exact_check(bad, column):
    amps = np.tile(sv.BELL_PAIR_AMPS, (3, 1))
    amps.view(np.float64)[1, column] = bad
    assert verdict(sv.check_rows, amps) == verdict(exact_check_rows, amps)
    assert verdict(sv.check_rows, amps) == (sv.StateError, "non-finite amplitude")


def test_check_rows_raises_on_an_overflowing_row_like_the_exact_check():
    huge = np.tile(sv.BELL_PAIR_AMPS, (2, 1))
    huge[1] *= 1e200
    with np.errstate(over="ignore"):
        got = verdict(sv.check_rows, huge)
        assert got == verdict(exact_check_rows, huge)
    assert got[0] is sv.NotNormalized


def test_check_rows_gives_stacks_outside_the_fused_pass_the_exact_check():
    # single precision, and a stack whose rows are not contiguous
    near = np.tile(sv.BELL_PAIR_AMPS, (3, 1))
    near[1] *= math.sqrt(1.0 + 0.9 * sv.NORM_TOL)
    for amps in (near.astype(np.complex64), np.tile(sv.BELL_PAIR_AMPS, (2, 3))[:, ::3]):
        assert verdict(sv.check_rows, amps) == verdict(exact_check_rows, amps)


# --- each row is checked where it enters the registry ----------------------------


def corrupt_in_place(registry, label, how):
    """Corrupt the row that holds ``label``, as a fault in the store would,
    after the registry checked it."""
    (bucket,) = registry._resolve([label])
    amps = bucket.family.amps
    if how == "huge":
        amps[bucket.rows] *= 1e200
    else:
        amps[bucket.rows] = corrupted(amps[bucket.rows], 0, how)


@pytest.mark.parametrize("how", ["nan", "scaled"])
def test_a_corrupted_row_cannot_enter_the_registry(how):
    registry = uniform_streams()
    before = dict(registry._where)
    with pytest.raises(sv.StateError):
        registry.add_rows([("x1",), ("x2",)], corrupted(sv.qubit_rows([(1, 0)] * 2), 1, how))
    assert registry._where == before
    # a Bell measurement across two families tensors their rows; the merged
    # rows are checked before anything is measured or removed
    corrupt_in_place(registry, "n", how)
    with pytest.raises(sv.StateError):
        registry.bell_measure_many(["m", "n"], ["a1", "a2"], np.random.default_rng(5))
    assert registry._where == before


@pytest.mark.parametrize("how,error", [("nan", sv.DegenerateState), ("huge", sv.NotNormalized),
                                       ("scaled", None)])
def test_a_bell_residual_enters_the_registry_checked(how, error):
    registry = QuantumRegistry()
    groups = np.kron(sv.qubit_rows([(0.6, 0.8j), (0.8, -0.6)]), sv.BELL_PAIR_AMPS[None, :])
    registry.add_rows([("t1", "a1", "b1"), ("t2", "a2", "b2")], groups)
    corrupt_in_place(registry, "t2", how)
    before = dict(registry._where)
    with np.errstate(over="ignore", invalid="ignore"):
        if error is None:
            # a scaled row's residual is renormalized by its branch probability
            registry.bell_measure_many(["t1", "t2"], ["a1", "a2"], np.random.default_rng(5))
            sv.check_rows(registry.amps_of(["b1", "b2"]))
        else:
            with pytest.raises(error):
                registry.bell_measure_many(["t1", "t2"], ["a1", "a2"], np.random.default_rng(5))
            assert registry._where == before


@given(st.data())
def test_paulis_keep_registry_rows_as_the_scalar_reference_does(data):
    # a Pauli only swaps and negates floats, so rows checked where they
    # entered stay on the unit sphere, bit for bit, with no check after it
    registry = QuantumRegistry()
    groups = {}
    for rows, k in ((3, 1), (2, 2)):
        amps = data.draw(stacks(k, k, rows=rows))
        names = [tuple(f"q{len(groups) + r}_{j}" for j in range(k)) for r in range(rows)]
        registry.add_rows(names, amps)
        groups.update((name, PureState(name, row)) for name, row in zip(names, amps))
    group_of = {label: name for name in groups for label in name}
    for _ in range(data.draw(st.integers(1, 5))):
        labels = data.draw(st.permutations(sorted(group_of)))[:data.draw(st.integers(1, 7))]
        x, z = bits(data.draw, len(labels)), bits(data.draw, len(labels))
        inverse = data.draw(st.booleans())
        registry.apply_paulis(labels, x, z, inverse=inverse)
        for label, xi, zi in zip(labels, x.tolist(), z.tolist()):
            state = groups[group_of[label]]
            if inverse:
                state = sv.apply_pauli(sv.apply_pauli(state, label, PauliBits(xi, 0)), label,
                                       PauliBits(0, zi))
            else:
                state = sv.apply_pauli(state, label, PauliBits(xi, zi))
            groups[group_of[label]] = state
    for name, state in groups.items():
        assert same_bits(registry.state_of(name[0]).amps, state.amps)
    for family in {id(f): f for f, _ in registry._parts}.values():
        sv.check_rows(family.amps)


# --- a batched registry call is its one-pair calls in turn --------------------


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_registry_many_equals_one_at_a_time(paulis, seed):
    n = len(paulis)
    rng = np.random.default_rng(seed)
    coeffs = [oracles.random_qubit(rng) for _ in range(n)]

    def fresh():
        registry = QuantumRegistry()
        registry.add_rows([(f"m{i}",) for i in range(n)], sv.qubit_rows(coeffs))
        registry.add_rows([(f"a{i}", f"b{i}") for i in range(n)],
                          np.tile(sv.BELL_PAIR_AMPS, (n, 1)))
        return registry

    batched, single = fresh(), fresh()
    ms, as_ = [f"m{i}" for i in range(n)], [f"a{i}" for i in range(n)]
    batched.apply_paulis(ms, [x for x, _ in paulis], [z for _, z in paulis])
    for label, (x, z) in zip(ms, paulis):
        single.apply_paulis([label], [x], [z])
    assert same_bits(batched.amps_of(ms), single.amps_of(ms))

    expected = [sv.bell_probabilities(sv.tensor(single.state_of(m), single.state_of(a)), m, a)
                for m, a in zip(ms, as_)]
    outcomes, probs = batched.bell_measure_many(ms, as_, np.random.default_rng(seed))
    one_rng = np.random.default_rng(seed)
    for i in range(n):
        assert tuple(probs[i].tolist()) == expected[i]
        assert measure(single, ms[i], as_[i], one_rng) is outcomes[i]
        b = f"b{i}"
        assert batched.state_of(b).labels == (b,)
        assert same_bits(batched.state_of(b).amps, single.state_of(b).amps)


def test_registry_measures_pairs_sharing_a_group_in_turn():
    # (y, z) and (x, w) both touch the groups of x, y and z, w: the batched
    # call refuses them, and measured in turn the second measurement must see
    # the first one's residual (entanglement swapping)
    registry = bell_pair_registry(("x", "y"), ("z", "w"))
    with pytest.raises(sv.LabelMismatch):
        registry.bell_measure_many(["y", "x"], ["z", "w"], np.random.default_rng(0))
    # (y, z) is maximally mixed, so this draw picks phi-plus
    outcomes = [measure(registry, "y", "z", StubRng(draw_for(BellOutcome.PHI_PLUS))),
                measure(registry, "x", "w", np.random.default_rng(0))]
    assert outcomes == [BellOutcome.PHI_PLUS, BellOutcome.PHI_PLUS]
    with pytest.raises(sv.UnknownLabel):
        registry.state_of("x")


def test_registry_measures_mixed_pairs_one_at_a_time():
    # the batched call refuses pairs from different families and axes and
    # leaves the registry as it was; one-pair calls then measure them
    def fresh():
        registry = QuantumRegistry()
        registry.add_rows([("a1", "b1"), ("a2", "b2")], np.tile(sv.BELL_PAIR_AMPS, (2, 1)))
        registry.add_rows([("m",)], sv.qubit_rows([(0.6, 0.8j)]))
        registry.apply_paulis(["a2"], [1], [1])
        return registry

    mixed, single = fresh(), fresh()
    with pytest.raises(sv.LabelMismatch):
        mixed.bell_measure_many(["m", "b2"], ["a1", "a2"], np.random.default_rng(5))
    mixed_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
    got = [measure(mixed, "m", "a1", mixed_rng), measure(mixed, "b2", "a2", mixed_rng)]
    assert got == [measure(single, "m", "a1", rng), measure(single, "b2", "a2", rng)]
    assert got[1] is BellOutcome.PSI_MINUS
    assert same_bits(mixed.state_of("b1").amps, single.state_of("b1").amps)


def test_registry_views_follow_writes():
    registry = bell_pair_registry(("a", "b"))
    before = registry.state_of("a")
    assert before.labels == registry.state_of("b").labels == ("a", "b")
    registry.apply_paulis(["b"], [1], [0])
    after = registry.state_of("a")
    assert after is not before
    np.testing.assert_array_equal(before.amps, sv.BELL_PAIR_AMPS)
    np.testing.assert_allclose(after.amps, oracles.BELL_VECS["psi-plus"], atol=1e-15)


@given(st.data())
def test_registry_reads_of_interleaved_labels_equal_per_label_reads(data):
    # like the delay-photon payload, which interleaves p_i with the probe
    # halves d1_i: labels from two or three families and axes, in any order
    n = data.draw(st.integers(1, 4))
    families = {
        "p": ([(f"p{i}",) for i in range(n)], data.draw(stacks(1, 1, rows=n))),
        "d": ([(f"d1_{i}", f"d2_{i}") for i in range(n)], data.draw(stacks(2, 2, rows=n))),
        "q": ([(f"q{i}",) for i in range(n)], data.draw(stacks(1, 1, rows=n))),
    }
    kept = data.draw(st.sampled_from([("p", "d"), ("p", "q"), ("p", "d", "q")]))
    registry = QuantumRegistry()
    group_of = {}  # label -> (group labels, amps), straight from the inputs
    for name in kept:
        rows, amps = families[name]
        registry.add_rows(rows, amps)
        group_of.update({label: (row, amps[r]) for r, row in enumerate(rows) for label in row})
    labels = data.draw(st.lists(st.sampled_from(sorted(group_of)), min_size=1, max_size=12))

    singles = [registry.state_of(label) for label in labels]
    for state, label in zip(singles, labels):
        assert state.labels == group_of[label][0]
        assert same_bits(state.amps, group_of[label][1])
    states = registry.sequence(labels)
    assert [s.labels for s in states] == [s.labels for s in singles]
    assert all(same_bits(s.amps, one.amps) for s, one in zip(states, singles))
    if len({len(s.amps) for s in singles}) == 1:
        assert same_bits(registry.amps_of(labels), np.array([s.amps for s in singles]))
    else:
        with pytest.raises(sv.LabelMismatch):
            registry.amps_of(labels)
    texts = registry.state_texts(labels)
    assert texts == [registry.state_texts([label])[0] for label in labels]
    assert texts == [canonical_json(s.to_jsonable()) for s in singles]

    bad = list(labels)
    bad.insert(data.draw(st.integers(0, len(labels))), "nowhere")
    for read in (registry.sequence, registry.amps_of, registry.state_texts):
        with pytest.raises(sv.UnknownLabel):
            read(bad)


def uniform_streams():
    """Two Bell pairs (a_i, b_i) and two single qubits m, n, one family each."""
    registry = QuantumRegistry()
    registry.add_rows([("a1", "b1"), ("a2", "b2")], np.tile(sv.BELL_PAIR_AMPS, (2, 1)))
    registry.add_rows([("m",), ("n",)], sv.qubit_rows([(0.6, 0.8j), (0.8, -0.6)]))
    return registry


def test_registry_apply_paulis_rejects_a_repeated_label():
    registry = uniform_streams()
    before = registry.amps_of(["m", "n"])
    with pytest.raises(sv.DuplicateLabel):
        registry.apply_paulis(["m", "n", "m"], [1, 1, 1], [0, 1, 1])
    assert same_bits(registry.amps_of(["m", "n"]), before)


@pytest.mark.parametrize("labels1,labels2", [
    (["m", "b2"], ["a1", "a2"]),  # one side spans two families
    (["a1", "b2"], ["m", "n"]),  # one side spans two axes of one family
    (["a1", "a2"], ["b2", "b1"]),  # each pair group is touched by two pairs
])
def test_registry_batched_bell_rejects_mixed_streams(labels1, labels2):
    registry = uniform_streams()
    labels = ["a1", "b1", "a2", "b2", "m", "n"]
    before = [registry.state_of(label) for label in labels]
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(sv.LabelMismatch):
        registry.bell_measure_many(labels1, labels2, rng)
    assert rng.bit_generator.state == state
    for label, old in zip(labels, before):
        new = registry.state_of(label)
        assert new.labels == old.labels and same_bits(new.amps, old.amps)


def test_registry_empty_bell_call():
    outcomes, probs = uniform_streams().bell_measure_many([], [], np.random.default_rng(0))
    assert outcomes == []
    assert probs.shape == (0, 4)


def test_registry_rejects_label_collisions():
    registry = QuantumRegistry()
    registry.add_rows([("a",)], sv.qubit_rows([(1, 0)]))
    with pytest.raises(sv.LabelCollision):
        registry.add_rows([("b",), ("a",)], sv.qubit_rows([(1, 0), (0, 1)]))
    with pytest.raises(sv.LabelCollision):
        registry.add_rows([("c",), ("c",)], sv.qubit_rows([(1, 0), (0, 1)]))
    with pytest.raises(sv.UnknownLabel):
        registry.state_of("b")


@pytest.mark.parametrize("bad", [0, ("q",), b"q"])
def test_registry_refuses_a_label_that_is_not_a_str(bad):
    # canonical text renders only string labels, so the registry refuses any
    # other label when it comes in, before it registers any row of the call
    registry = QuantumRegistry()
    with pytest.raises(TypeError):
        registry.add_rows([("a", "b"), ("c", bad)], np.tile(sv.BELL_PAIR_AMPS, (2, 1)))
    for label in ("a", "b", "c"):
        with pytest.raises(sv.UnknownLabel):
            registry.state_of(label)
    registry.add_rows([("a", "b")], sv.BELL_PAIR_AMPS[None, :])
    assert registry.state_texts(["b"]) == [canonical_json(registry.state_of("b").to_jsonable())]



# --- kept stream resolutions ------------------------------------------------------


def kept_state(registry):
    """Where each label sits, the (family, axis) parts, and each kept stream
    resolution (by identity)."""
    return (dict(registry._where), list(registry._parts),
            {stream: id(buckets) for stream, buckets in registry._resolved.items()})


@pytest.mark.parametrize("rows,amps,error", [
    ([("x1",), ("x2",), ("m",)], sv.qubit_rows([(1, 0)] * 3), sv.LabelCollision),
    ([("x1",), ("x2",), (7,)], sv.qubit_rows([(1, 0)] * 3), TypeError),
    ([("x1",), ("x2", "x3")], sv.qubit_rows([(1, 0)] * 2), sv.StateError),
])
def test_a_failed_add_rows_leaves_the_registry_as_it_was(rows, amps, error):
    # a collision in the last row, a label that is not a str, rows of two widths
    registry = uniform_streams()
    streams = [("m", "n"), ("a1", "a2"), ("b2", "a1", "b1")]
    reads = [registry.amps_of(stream) for stream in streams]  # resolved and kept
    before = kept_state(registry)
    assert set(before[2]) == set(streams)
    with pytest.raises(error):
        registry.add_rows(rows, amps)
    assert kept_state(registry) == before
    for stream, read in zip(streams, reads):
        assert same_bits(registry.amps_of(stream), read)
    with pytest.raises(sv.UnknownLabel):
        registry.state_of("x1")


def test_a_stream_resolved_before_a_bell_measurement_follows_its_labels():
    registry = uniform_streams()
    gone, moved = ["m", "a1", "n"], ["b1", "b2"]
    for stream in (gone, moved):
        registry.state_texts(stream)  # resolved and kept
    assert registry.amps_of(moved).shape == (2, 4)
    registry.bell_measure_many(["a1", "a2"], ["m", "n"], np.random.default_rng(5))
    for read in (registry.sequence, registry.amps_of, registry.state_texts):
        with pytest.raises(sv.UnknownLabel):
            read(gone)
    with pytest.raises(sv.UnknownLabel):
        registry.apply_paulis(gone, [1, 1, 1], [0, 0, 0])
    # the b halves now sit alone in the residual family
    residual = registry.sequence(moved)
    assert [state.labels for state in residual] == [("b1",), ("b2",)]
    assert same_bits(registry.amps_of(moved), np.array([state.amps for state in residual]))

# --- equality up to phase --------------------------------------------------------


@given(st.data())
def test_equal_up_to_phase_rows_match_scalar(data):
    a = data.draw(stacks(max_qubits=2))
    m, k = a.shape[0], int(math.log2(a.shape[1]))
    theta = np.array(data.draw(st.lists(st.floats(0, 2 * math.pi), min_size=m, max_size=m)))
    other = data.draw(stacks(min_qubits=k, max_qubits=k, rows=m))
    # half the rows are a phase-rotated copy, the rest an unrelated state
    same = np.arange(m) % 2 == 0
    b = np.where(same[:, None], np.exp(1j * theta)[:, None] * a, other)
    b = sv.check_rows(b / np.linalg.norm(b, axis=1)[:, None])
    got = sv.equal_up_to_phase_rows(a, b, 1e-9)
    for r in range(m):
        ref = sv.equal_up_to_phase(state_of_row(a, r), state_of_row(b, r), 1e-9)
        assert got[r] == ref
        if same[r]:
            assert got[r] and oracles.vec_equal_up_to_phase(a[r], b[r], 1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_equal_up_to_phase_rows_decide_the_band_like_the_scalar_norm(k):
    # row r of a is b + d[r] with b = |0...0> and d[r][0] = 0, so the phase
    # is exactly 1 and the distance is exactly ||d[r]||: rows at tol, a hair
    # either side of it, far from it, and random rows scaled to norm tol,
    # where a stacked sum of squares and np.linalg.norm round apart
    tol = 1e-9
    dim = 2 ** k
    rng = np.random.default_rng(k)
    d = rng.normal(size=(200, dim)) + 1j * rng.normal(size=(200, dim))
    d[:, 0] = 0
    d *= tol / np.linalg.norm(d, axis=1)[:, None]
    on_tol = np.zeros((6, dim), dtype=complex)
    on_tol[:, 1] = [tol, tol * (1 - 1e-13), tol * (1 + 1e-13), 1j * tol, tol * 1e-3, 0.0]
    d = np.concatenate([d, on_tol, d[:3] * (1 - 1e-13), d[:3] * (1 + 1e-13), d[:3] * 100])
    b = np.zeros_like(d)
    b[:, 0] = 1
    a = np.concatenate([b + d, np.eye(dim, dtype=complex)[1:2]])  # and |0..01> vs |0..0>
    b = np.concatenate([b, b[:1]])
    got = sv.equal_up_to_phase_rows(a, b, tol)
    assert got == [float(np.linalg.norm(row)) <= tol for row in a - b]
    for r in range(len(a)):
        assert got[r] == sv.equal_up_to_phase(state_of_row(a, r), state_of_row(b, r), tol)
    assert got[200:206] == [True, True, False, True, True, True] and not got[-1]
    if k > 1:  # the band holds rows that a stacked distance alone would decide wrongly
        f = np.ascontiguousarray(a - b).view(np.float64)
        stacked = np.sqrt(np.einsum("ij,ij->i", f, f)) <= tol
        assert any(stacked[r] != got[r] for r in range(len(a)))


def test_equal_up_to_phase_rows_stay_quiet_on_a_subnormal_phase():
    # a's amplitude at b's dominant index is subnormal: its unit phase
    # overflows, and the row takes c = 1 below PROB_FLOOR as the scalar does
    a = np.array([[0, 2.2e-309j, 0, 1j]])
    b = np.array([[0, 1j, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sv.equal_up_to_phase_rows(a, b, 1e-9)
    assert got == [sv.equal_up_to_phase(state_of_row(a, 0), state_of_row(b, 0), 1e-9)] == [False]


def test_equal_up_to_phase_rows_fall_back_on_non_finite_rows():
    # NaN, infinite and overflowing rows decide as the scalar norm does:
    # not equal; PureState refuses such rows, so only the norm is the reference
    b = np.array([[1, 0]] * 4, dtype=complex)
    a = np.array([[np.nan, 0], [1, np.inf], [1, 1e200], [1, 1e-10]], dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        got = sv.equal_up_to_phase_rows(a, b, 1e-9)
        assert got == [float(np.linalg.norm(row)) <= 1e-9 for row in a - b]
    assert got == [False, False, False, True]


# --- fidelity --------------------------------------------------------------------


def _phase_equal_rows_above_one():
    """Phase-equal single-qubit rows whose squared overlap rounds above 1."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(400, 2)) + 1j * rng.normal(size=(400, 2))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = np.exp(1j * rng.uniform(0, 2 * math.pi, 400))[:, None] * a
    above = [abs(np.vdot(x, y)) ** 2 > 1.0 for x, y in zip(a, b)]
    return a[above], b[above]


@given(st.data())
def test_fidelity_rows_match_scalar_bit_for_bit(data):
    # each row of b is an unrelated state, a phase-rotated copy of a's row
    # or a state orthogonal to it; a signed-zero basis pair and phase-equal
    # rows whose overlap rounds above 1 (and is clamped) ride along at k=1
    a = data.draw(stacks(max_qubits=3))
    m, k = a.shape[0], int(math.log2(a.shape[1]))
    other = data.draw(stacks(min_qubits=k, max_qubits=k, rows=m))
    theta = np.array(data.draw(st.lists(st.floats(0, 2 * math.pi), min_size=m, max_size=m)))
    kind = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))[:, None]
    orthogonal = (a.conj().reshape(m, -1, 2)[:, :, ::-1] * [-1, 1]).reshape(m, -1)
    b = np.where(kind == 0, other, np.where(kind == 1, np.exp(1j * theta)[:, None] * a, orthogonal))
    if k == 1:
        above_a, above_b = _phase_equal_rows_above_one()
        zeros_a = np.array([[complex(-0.0, 0.0), 1j], [complex(0.0, -0.0), complex(-1.0, -0.0)]])
        zeros_b = np.array([[complex(-1.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 1j]])
        a = np.concatenate([a, above_a, zeros_a])
        b = np.concatenate([b, above_b, zeros_b])
    got = sv.fidelity_rows(a, b)
    ref = [sv.fidelity(state_of_row(a, r), state_of_row(b, r)) for r in range(len(a))]
    assert [x.hex() for x in got] == [x.hex() for x in ref]
    assert all(0.0 <= x <= 1.0 for x in got)
    if k == 1:
        assert len(above_a) and got[m:] == [1.0] * len(above_a) + [0.0, 1.0]
