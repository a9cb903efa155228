"""Register construction, gates, measurement, partial trace, entropy."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetsim import qstate
from qnetsim.qstate import (
    GateSpec,
    QuantumState,
    apply_operators,
    apply_unitary,
    fidelity,
    gaussian_ket,
    haar_bloch_vector,
    measure,
    partial_trace,
    purity,
    random_pure_state,
    von_neumann_entropy,
)
from reference import (
    H,
    I2,
    X,
    Y,
    Z,
    ForcedDraw,
    assert_density_matrix,
    basis_state,
    bell_matrix,
    random_kraus,
)

# Hand-built references, kept independent of the package constants.
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
# Each gate's matrix on its targets in order; a controlled gate's control first.
GATES = {
    "I": I2,
    "X": X,
    "Y": Y,
    "Z": Z,
    "H": H,
    "CNOT": np.kron(P0, I2) + np.kron(P1, X),
    "CZ": np.kron(P0, I2) + np.kron(P1, Z),
}


def kron_of(factors, num_qubits):
    """Explicit Kronecker product: ``factors[q]`` on qubit q, identity elsewhere."""
    return functools.reduce(np.kron, [factors.get(q, I2) for q in range(num_qubits)])


# -- gates --------------------------------------------------------------------


def test_hadamard_on_zero():
    state = apply_unitary(QuantumState(1, basis_state("0")), GateSpec("H", (0,)))
    assert np.allclose(state.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_x_is_an_involution():
    rng = np.random.default_rng(7)
    state = random_pure_state(rng, 2)
    gate = GateSpec("X", (1,))
    back = apply_unitary(apply_unitary(state, gate), gate)
    assert np.allclose(back.matrix, state.matrix, atol=1e-12)


def test_bell_circuit_builds_phi_plus():
    state = QuantumState(2, basis_state("00"))
    state = apply_unitary(state, GateSpec("H", (0,)))
    state = apply_unitary(state, GateSpec("CNOT", (0, 1)))
    assert np.allclose(state.matrix, bell_matrix(0, 0), atol=1e-12)


def test_cnot_truth_table():
    # control is listed first; |10> flips to |11>, |01> stays
    flipped = apply_unitary(QuantumState(2, basis_state("10")), GateSpec("CNOT", (0, 1)))
    assert np.allclose(flipped.matrix, basis_state("11"))
    kept = apply_unitary(QuantumState(2, basis_state("01")), GateSpec("CNOT", (0, 1)))
    assert np.allclose(kept.matrix, basis_state("01"))


def test_cz_matches_explicit_matrix():
    rng = np.random.default_rng(3)
    state = random_pure_state(rng, 2)
    out = apply_unitary(state, GateSpec("CZ", (0, 1)))
    u = np.diag([1, 1, 1, -1]).astype(complex)
    assert np.allclose(out.matrix, u @ state.matrix @ u.conj().T, atol=1e-12)


def test_gate_respects_qubit_order_convention():
    # X on qubit 1 of |00> must give |01> (qubit 0 is the most significant)
    state = apply_unitary(QuantumState(2, basis_state("00")), GateSpec("X", (1,)))
    assert np.allclose(state.matrix, basis_state("01"))


def test_gate_target_out_of_range():
    with pytest.raises(IndexError):
        apply_unitary(QuantumState(1, basis_state("0")), GateSpec("X", (1,)))


def test_gate_spec_validation():
    # GateSpec is plain data; apply_unitary checks the gate it is given.
    state = QuantumState(2, basis_state("00"))
    with pytest.raises(ValueError, match="unknown gate 'SWAP'"):
        apply_unitary(state, GateSpec("SWAP", (0, 1)))
    with pytest.raises(ValueError, match=r"gate H takes 1 target\(s\), got \(0, 1\)"):
        apply_unitary(state, GateSpec("H", (0, 1)))
    with pytest.raises(ValueError, match=r"targets must be distinct, got \(1, 1\)"):
        apply_unitary(state, GateSpec("CNOT", (1, 1)))
    with pytest.raises(AttributeError, match="can't set attribute"):
        GateSpec("H", (0,)).targets = (0, 1)


@pytest.mark.parametrize("num_qubits", [7, 8])
def test_cnot_on_reversed_distant_targets_matches_kron_oracle(num_qubits):
    # control 6, target 1: the control is the less significant of the two
    rng = np.random.default_rng(num_qubits)
    state = random_pure_state(rng, num_qubits)
    u = kron_of({6: P0}, num_qubits) + kron_of({6: P1, 1: X}, num_qubits)
    out = apply_unitary(state, GateSpec("CNOT", (6, 1)))
    assert np.allclose(out.matrix, u @ state.matrix @ u.conj().T, atol=1e-12)
    assert_density_matrix(out.matrix)


def test_gate_on_register_above_cap_raises_before_embedding():
    state = QuantumState(9, np.eye(2**9, dtype=complex) / 2**9)
    with pytest.raises(ValueError, match=r"register size 9 outside \[1, 8\]"):
        apply_unitary(state, GateSpec("X", (0,)))
    # a register of no qubits is outside the cap too
    with pytest.raises(ValueError, match=r"register size 0 outside \[1, 8\]"):
        apply_unitary(QuantumState(0, np.ones((1, 1), dtype=complex)), GateSpec("X", (0,)))


def test_gate_matrices_are_one_read_only_table():
    for name in qstate.GATE_NAMES:
        u = qstate._GATES[name]
        assert np.array_equal(u, GATES[name])
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


def test_every_gate_is_unitary_and_read_only():
    for name in qstate.GATE_NAMES:
        u = qstate._GATES[name]
        assert float(np.max(np.abs(u @ u.conj().T - np.eye(len(u))))) <= 1e-12, name
        assert not u.flags.writeable, name


def _kron_embedding(op, targets, num_qubits):
    """``op`` on ``targets``, in their order, as a full-register matrix: the
    sum over its entries ``op[i, j] |i><j|``, each matrix unit a Kronecker
    product of single-qubit units on the targets and identities elsewhere."""
    k = len(targets)
    full = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    for i in range(2**k):
        for j in range(2**k):
            units = {}
            for t, q in enumerate(targets):
                units[q] = np.zeros((2, 2), dtype=complex)
                units[q][(i >> (k - 1 - t)) & 1, (j >> (k - 1 - t)) & 1] = 1.0
            full += op[i, j] * kron_of(units, num_qubits)
    return full


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 5),
    num_ops=st.integers(1, 4),
    order=st.permutations(range(5)),
)
def test_gates_and_kraus_sets_match_kron_embedding_oracle(seed, num_qubits, num_ops, order):
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    state = QuantumState(num_qubits, g @ g.conj().T / np.trace(g @ g.conj().T))
    # every gate, and a random Kraus set on one and on two targets, the
    # two-qubit ones on a pair of distinct qubits in either order
    a, *rest = [q for q in order if q < num_qubits]
    placements = [(a,)] + [(a, b) for b in rest[:1]] + [(b, a) for b in rest[:1]]
    for targets in placements:
        for name, u in GATES.items():
            if len(u) == 2 ** len(targets):
                full = _kron_embedding(u, targets, num_qubits)
                out = apply_unitary(state, GateSpec(name, targets))
                assert np.max(np.abs(out.matrix - full @ state.matrix @ full.conj().T)) <= 1e-12
        kraus = random_kraus(rng, num_ops, 2 ** len(targets))
        oracle = sum(
            full @ state.matrix @ full.conj().T
            for full in (_kron_embedding(k, targets, num_qubits) for k in kraus)
        )
        out = apply_operators(state, kraus, targets)
        assert np.max(np.abs(out.matrix - oracle)) <= 1e-12


# -- measurement --------------------------------------------------------------


def test_measure_eigenstate_is_deterministic():
    rng = np.random.default_rng(0)
    outcome, post = measure(QuantumState(1, basis_state("1")), 0, rng)
    assert outcome.bit == 1
    assert outcome.probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post.matrix, np.diag([0.0, 1.0]))


def test_measure_bell_collapses_partner():
    rng = np.random.default_rng(5)
    state = QuantumState(2, bell_matrix(0, 0))
    outcome, post = measure(state, 0, rng)
    assert outcome.probability == pytest.approx(0.5, abs=1e-12)
    b = outcome.bit
    expected = basis_state(f"{b}{b}")
    assert np.allclose(post.matrix, expected, atol=1e-12)


def test_measure_frequency_on_plus_state():
    rng = np.random.default_rng(11)
    plus = apply_unitary(QuantumState(1, basis_state("0")), GateSpec("H", (0,)))
    hits = sum(measure(plus, 0, rng)[0].bit for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.01


def test_measure_frequency_within_binomial_bounds():
    # skewed state: p(1) = sin^2(0.8) from a rotated amplitude vector
    amp = np.array([math.cos(0.8), math.sin(0.8)])
    state = QuantumState(1, np.outer(amp, amp))
    p = math.sin(0.8) ** 2
    n = 100_000
    rng = np.random.default_rng(23)
    hits = sum(measure(state, 0, rng)[0].bit for _ in range(n))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * sigma


def test_measure_index_error():
    rng = np.random.default_rng(0)
    with pytest.raises(IndexError):
        measure(QuantumState(1, basis_state("0")), 2, rng)


def test_measure_guards_zero_probability_branch():
    # on |1> the bit-0 branch has probability 0; a draw >= 1 selects it
    with pytest.raises(ArithmeticError, match="measurement branch 0 on qubit 0 has probability 0"):
        measure(QuantumState(1, basis_state("1")), 0, ForcedDraw(1.5))


# -- partial trace ------------------------------------------------------------


def test_partial_trace_bell_marginal():
    state = QuantumState(2, bell_matrix(0, 0))
    reduced = partial_trace(state, (0,))
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-10)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(2)
    state = random_pure_state(rng, 3)
    assert partial_trace(state, (0, 1, 2)) is state


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(9)
    psi = random_pure_state(rng, 1)
    joint = QuantumState(2, np.kron(psi.matrix, basis_state("0")))
    reduced = partial_trace(joint, (0,))
    assert np.allclose(reduced.matrix, psi.matrix, atol=1e-12)


def test_partial_trace_validation():
    state = QuantumState(2, basis_state("00"))
    with pytest.raises(ValueError):
        partial_trace(state, ())
    with pytest.raises(IndexError):
        partial_trace(state, (5,))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    state = random_pure_state(rng, 4)
    reduced = partial_trace(state, (1, 3))
    assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12
    assert_density_matrix(reduced.matrix)


# -- entropy and fidelity -----------------------------------------------------


def test_entropy_of_pure_state_is_zero():
    rng = np.random.default_rng(6)
    assert von_neumann_entropy(random_pure_state(rng, 2)) == pytest.approx(0.0, abs=1e-9)


def test_entropy_of_maximally_mixed_qubit():
    state = QuantumState(1, np.eye(2, dtype=complex) / 2)
    assert von_neumann_entropy(state) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_quarter_three_quarter_mix():
    # oracle: plain evaluation of -sum(p log2 p)
    oracle = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert oracle == pytest.approx(0.8112781244591328, abs=1e-15)
    state = QuantumState(1, np.diag([0.25, 0.75]).astype(complex))
    assert von_neumann_entropy(state) == pytest.approx(oracle, abs=1e-12)


def test_entropy_rejects_negative_spectrum():
    bad = QuantumState(1, np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(ValueError):
        von_neumann_entropy(bad)


def test_spectrum_entropy_rule_on_plain_floats():
    # oracle: plain evaluation of -sum(p log2 p) over the kept eigenvalues
    assert qstate.spectrum_entropy([0.5, 0.5]) == 1.0
    # rounding dust around a pure state: clipped to [0, 1], so it adds nothing
    assert qstate.spectrum_entropy([-1e-17, 1.0 + 2e-16]) == 0.0
    # the floor is inclusive: 1e-12 counts, anything just under it does not
    assert qstate.spectrum_entropy([1e-12 - 1e-13, 0.5]) == 0.5
    assert qstate.spectrum_entropy([1e-12]) == pytest.approx(-1e-12 * math.log2(1e-12), rel=1e-15)
    assert qstate.spectrum_entropy([]) == 0.0
    with pytest.raises(ValueError, match=r"eigenvalue -2e-10 below -1e-10"):
        qstate.spectrum_entropy([0.5, -2e-10, 0.5])


def test_fidelity_self_and_mixed():
    rng = np.random.default_rng(8)
    psi = random_pure_state(rng, 1)
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    mixed = QuantumState(1, np.eye(2, dtype=complex) / 2)
    assert fidelity(mixed, psi) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_of_product_of_marginals_vs_bell():
    # explicit contraction: tr((I/2 (x) I/2) |phi+><phi+|) = 1/4
    product = QuantumState(2, np.eye(4, dtype=complex) / 4)
    reference = QuantumState(2, bell_matrix(0, 0))
    oracle = float(np.real(np.trace((np.eye(4) / 4) @ bell_matrix(0, 0))))
    assert oracle == pytest.approx(0.25, abs=1e-15)
    assert fidelity(product, reference) == pytest.approx(oracle, abs=1e-12)


def test_fidelity_rejects_mixed_reference():
    mixed = QuantumState(1, np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError):
        fidelity(QuantumState(1, basis_state("0")), mixed)
    with pytest.raises(ValueError):
        fidelity(QuantumState(1, basis_state("0")), QuantumState(2, bell_matrix(0, 0)))


# -- Haar payloads -------------------------------------------------------------


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_gaussian_ket_makes_the_normal_draws_of_a_haar_state(num_qubits):
    # Real parts then imaginary parts, one normal draw of 2^n each: the
    # generator ends where two such draws leave it, and random_pure_state
    # is that ket normalised.
    dim = 2**num_qubits
    reference = np.random.default_rng(91)
    real, imag = reference.normal(size=dim), reference.normal(size=dim)
    rng = np.random.default_rng(91)
    ket = gaussian_ket(rng, num_qubits)
    assert np.array_equal(ket, real + 1j * imag)
    assert rng.bit_generator.state == reference.bit_generator.state
    rng = np.random.default_rng(91)
    state = random_pure_state(rng, num_qubits)
    unit = (real + 1j * imag) / np.linalg.norm(real + 1j * imag)
    assert np.array_equal(state.matrix, np.outer(unit, unit.conj()))
    assert rng.bit_generator.state == reference.bit_generator.state


def test_haar_bloch_vector_is_pauli_expectation_of_the_gaussian_ket():
    # The same draws as gaussian_ket, and to the last bit the complex
    # arithmetic on that ket's amplitudes.
    rng = np.random.default_rng(92)
    reference = np.random.default_rng(92)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for _ in range(150):
        r = haar_bloch_vector(rng)
        ket = gaussian_ket(reference)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert all(type(value) is float for value in r)
        rho = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
        expected = [np.real(np.trace(p @ rho)) for p in (X, y, Z)]
        assert np.allclose(r, expected, rtol=0.0, atol=1e-14)
        a, b = ket.tolist()
        cross = a.conjugate() * b
        weight_0 = a.real * a.real + a.imag * a.imag
        weight_1 = b.real * b.real + b.imag * b.imag
        norm = weight_0 + weight_1
        assert r == (2.0 * cross.real / norm, 2.0 * cross.imag / norm, (weight_0 - weight_1) / norm)


# -- invariant properties -----------------------------------------------------

_GATE_POOL = ("I", "X", "Y", "Z", "H", "CNOT", "CZ")


def _circuit(rng_seed, depth, num_qubits):
    rng = np.random.default_rng(rng_seed)
    pool = _GATE_POOL if num_qubits >= 2 else _GATE_POOL[:5]
    gates = []
    for _ in range(depth):
        name = pool[rng.integers(len(pool))]
        if name in ("CNOT", "CZ"):
            a, b = rng.choice(num_qubits, size=2, replace=False)
            gates.append(GateSpec(name, (int(a), int(b))))
        else:
            gates.append(GateSpec(name, (int(rng.integers(num_qubits)),)))
    return gates


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(0, 20),
    num_qubits=st.integers(1, 4),
)
def test_random_circuits_preserve_state_invariants(seed, depth, num_qubits):
    state = QuantumState(num_qubits, basis_state("0" * num_qubits))
    for gate in _circuit(seed, depth, num_qubits):
        state = apply_unitary(state, gate)
    assert_density_matrix(state.matrix)
    # unitaries keep pure inputs pure
    assert abs(purity(state) - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 3))
def test_entropy_bounds_on_random_mixed_states(seed, num_qubits):
    rng = np.random.default_rng(seed)
    dim = 2**num_qubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    state = QuantumState(num_qubits, rho)
    s = von_neumann_entropy(state)
    assert -1e-9 <= s <= num_qubits + 1e-9
    if abs(purity(state) - 1.0) < 1e-10:
        assert s < 1e-9


def test_measurement_keeps_trace_one():
    rng = np.random.default_rng(31)
    state = random_pure_state(rng, 3)
    _, post = measure(state, 1, rng)
    assert_density_matrix(post.matrix)
