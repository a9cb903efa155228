"""Exact density-matrix simulation of small qubit registers.

States are dense ``2^n x 2^n`` complex matrices with qubit 0 as the most
significant tensor factor, so ``int(bits, 2)`` is the basis index of the
ket ``|bits>``.  No operation changes a state in place.  No scenario run
builds a register or applies an operator to one: the register and its
kernels serve the tests and the benchmark's kernel sweep, and a run takes
only the tolerances, the Pauli matrices and ``haar_bloch_vector`` from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# The largest register anything may build or apply an operator to: its
# density matrix is 256 x 256, 1 MiB of complex entries.
MAX_QUBITS = 8

# Tolerance policy: structural invariants (trace, hermiticity, positivity
# dust) at 1e-10, unitarity at 1e-12, derived scalars at 1e-9.
STRUCTURAL_ATOL = 1e-10
UNITARY_ATOL = 1e-12
SCALAR_ATOL = 1e-9
# Eigenvalues and branch probabilities below this floor count as zero.
EIGENVALUE_FLOOR = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
# The Pauli basis I, X, Y, Z as one read-only (4, 2, 2) array.
PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])
PAULIS.flags.writeable = False


def _controlled(pauli: np.ndarray) -> np.ndarray:
    """The gate applying ``pauli`` to the second qubit when the first is 1."""
    return np.kron(np.diag([1.0, 0.0]), I2) + np.kron(np.diag([0.0, 1.0]), pauli)


def _read_only_unitaries(gates: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    for name, u in gates.items():
        if float(np.max(np.abs(u @ u.conj().T - np.eye(len(u))))) > UNITARY_ATOL:
            raise ValueError(f"gate {name} is not unitary within {UNITARY_ATOL}")
        u.flags.writeable = False
    return gates


# Every gate as one constant matrix, checked for unitarity once, here.  A
# controlled gate takes its control as the first target.
_GATES = _read_only_unitaries(
    {
        "I": I2,
        "X": PAULI_X,
        "Y": PAULI_Y,
        "Z": PAULI_Z,
        "H": HADAMARD,
        "CNOT": _controlled(PAULI_X),
        "CZ": _controlled(PAULI_Z),
    }
)
GATE_NAMES = tuple(_GATES)


class QuantumState(NamedTuple):
    """Density matrix over an ``num_qubits``-sized register."""

    num_qubits: int
    matrix: np.ndarray

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class GateSpec:
    """A named gate applied to an ordered tuple of target qubits.

    Controlled gates list the control first, then the target.
    """

    name: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}; supported: {GATE_NAMES}")
        arity = len(_GATES[self.name]).bit_length() - 1
        if len(self.targets) != arity:
            raise ValueError(f"gate {self.name} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")

    def matrix(self) -> np.ndarray:
        """The gate's read-only matrix on its targets, in their order."""
        return _GATES[self.name]


class MeasurementOutcome(NamedTuple):
    """Result of a single-qubit computational-basis measurement."""

    qubit: int
    bit: int
    probability: float


def _check_register_size(num_qubits: int) -> None:
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"register size {num_qubits} outside [1, {MAX_QUBITS}]")


def apply_operators(
    state: QuantumState, ops: np.ndarray, targets: Sequence[int]
) -> QuantumState:
    """``sum_m K_m rho K_m^dag`` for the ``(m, d, d)`` stack ``ops`` acting
    on the distinct qubits ``targets``, in their order, of a register.

    The density matrix is transposed so the targets come first on both
    sides, as ``(d, r, d, r)``; then one matmul applies ``K`` on the row
    side and one ``conj(K)`` on the column side, and the ``m`` results are
    summed.  No operator is lifted to the full register.  This is the one
    way a gate or channel reaches a register.
    """
    n = state.num_qubits
    _check_register_size(n)
    for q in targets:
        if not 0 <= q < n:
            raise IndexError(f"target {q} outside register of {n} qubits")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {tuple(targets)}")
    order = [*targets, *(q for q in range(n) if q not in targets)]
    axes = order + [q + n for q in order]
    d = 2 ** len(targets)
    r = 2**n // d
    shape = (2,) * (2 * n)
    rho = state.matrix.reshape(shape).transpose(axes).reshape(d, r * d * r)
    out = ops.conj()[:, None] @ (ops @ rho).reshape(-1, d * r, d, r)
    if len(out) > 1:
        out = out.sum(axis=0)
    inverse = sorted(range(2 * n), key=axes.__getitem__)
    return QuantumState(n, out.reshape(shape).transpose(inverse).reshape(2**n, 2**n))


def apply_unitary(state: QuantumState, gate: GateSpec) -> QuantumState:
    return apply_operators(state, gate.matrix()[None], gate.targets)


def _bit_of_index(num_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(2**num_qubits)
    return (idx >> (num_qubits - 1 - qubit)) & 1


def measure(
    state: QuantumState, qubit: int, rng: np.random.Generator
) -> tuple[MeasurementOutcome, QuantumState]:
    """Projective computational-basis measurement of one qubit.

    Samples via the Born rule from ``rng`` and returns the outcome together
    with the renormalized post-measurement state.
    """
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} outside register of {n} qubits")
    bits = _bit_of_index(n, qubit)
    diag = np.real(np.diag(state.matrix))
    p_one = float(diag[bits == 1].sum())
    p_one = min(max(p_one, 0.0), 1.0)
    bit = 1 if rng.random() < p_one else 0
    prob = p_one if bit == 1 else 1.0 - p_one
    if prob < EIGENVALUE_FLOOR:
        raise ArithmeticError(
            f"measurement branch {bit} on qubit {qubit} has probability {prob}"
        )
    mask = (bits == bit).astype(float)
    post = state.matrix * np.outer(mask, mask) / prob
    return MeasurementOutcome(qubit, bit, prob), QuantumState(n, post)


def partial_trace(state: QuantumState, keep: Sequence[int]) -> QuantumState:
    """Reduced state on ``keep`` (ascending order), tracing out the rest."""
    keep_sorted = sorted(set(keep))
    if not keep_sorted:
        raise ValueError("keep set must be nonempty")
    n = state.num_qubits
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise IndexError(f"keep set {keep_sorted} outside register of {n} qubits")
    if len(keep_sorted) == n:
        return state
    keep_set = set(keep_sorted)
    tensor = state.matrix.reshape((2,) * (2 * n))
    row_labels = list(range(n))
    # Traced qubits reuse their row label on the column axis, contracting them.
    col_labels = [n + q if q in keep_set else q for q in range(n)]
    out_labels = [q for q in keep_sorted] + [n + q for q in keep_sorted]
    reduced = np.einsum(tensor, row_labels + col_labels, out_labels)
    k = len(keep_sorted)
    return QuantumState(k, reduced.reshape(2**k, 2**k))


def spectrum_entropy(eigenvalues: Iterable[float]) -> float:
    """Entropy in bits, ``-sum(lambda * log2(lambda))``, of a state with
    these eigenvalues, given as plain floats.

    Eigenvalues are clipped to [0, 1], and those below the floor
    contribute zero; anything below the structural negativity budget is
    rejected as an invalid state.  This is the one entropy rule.
    """
    total = 0.0
    for lam in eigenvalues:
        if lam < -STRUCTURAL_ATOL:
            raise ValueError(f"state has eigenvalue {lam} below -{STRUCTURAL_ATOL}")
        if lam >= EIGENVALUE_FLOOR:
            if lam > 1.0:
                lam = 1.0
            total -= lam * math.log2(lam)
    return total


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in bits of a register's state, from its spectrum."""
    return spectrum_entropy(np.linalg.eigvalsh(state.matrix).tolist())


def fidelity(state: QuantumState, reference: QuantumState) -> float:
    """``<psi|rho|psi>`` against a pure reference state."""
    if reference.num_qubits != state.num_qubits:
        raise ValueError("state and reference have different register sizes")
    if abs(reference.purity() - 1.0) > STRUCTURAL_ATOL:
        raise ValueError("reference state must be pure")
    value = float(np.real(np.trace(state.matrix @ reference.matrix)))
    return min(max(value, 0.0), 1.0)


def gaussian_ket(rng: np.random.Generator, num_qubits: int = 1) -> np.ndarray:
    """Unnormalised ket of independent complex normal amplitudes, real
    parts drawn first, then imaginary parts.  Its direction is
    Haar-random, so this is the one place a Haar payload is drawn."""
    dim = 2**num_qubits
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def random_pure_state(rng: np.random.Generator, num_qubits: int = 1) -> QuantumState:
    """Haar-random pure state drawn from the given generator."""
    v = gaussian_ket(rng, num_qubits)
    v /= np.linalg.norm(v)
    return QuantumState(num_qubits, np.outer(v, v.conj()))


def haar_bloch_vector(rng: np.random.Generator) -> tuple[float, float, float]:
    """``(<X>, <Y>, <Z>)`` of a Haar-random pure qubit state, as plain floats.

    One normal draw of four makes the ``gaussian_ket`` amplitudes, real
    parts first, so the generator moves as it does for ``gaussian_ket``."""
    a_re, b_re, a_im, b_im = rng.normal(size=4).tolist()
    weight_0 = a_re * a_re + a_im * a_im
    weight_1 = b_re * b_re + b_im * b_im
    norm = weight_0 + weight_1
    # conj(a) * b, component by component
    cross_re = a_re * b_re + a_im * b_im
    cross_im = a_re * b_im - a_im * b_re
    return 2.0 * cross_re / norm, 2.0 * cross_im / norm, (weight_0 - weight_1) / norm
