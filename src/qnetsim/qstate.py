"""Exact density-matrix simulation of small qubit registers.

States are dense ``2^n x 2^n`` complex matrices with qubit 0 as the most
significant tensor factor, so ``int(bits, 2)`` is the basis index of the
ket ``|bits>``.  Every operation returns a new state; nothing is mutated
in place, which lets large constant states (Bell pairs, W states) share
a single read-only matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import CapacityError, RenormalizationError

MAX_QUBITS = 12

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

_SINGLE_QUBIT_GATES = {
    "I": I2,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
}
_CONTROLLED_GATES = {
    "CNOT": PAULI_X,
    "CX": PAULI_X,
    "CY": PAULI_Y,
    "CZ": PAULI_Z,
}
GATE_NAMES = tuple(_SINGLE_QUBIT_GATES) + tuple(_CONTROLLED_GATES)


@dataclass
class QuantumState:
    """Density matrix over an ``num_qubits``-sized register."""

    num_qubits: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, *, validate: bool = True) -> "QuantumState":
        matrix = np.asarray(matrix, dtype=complex)
        dim = matrix.shape[0]
        num_qubits = int(dim).bit_length() - 1
        if matrix.shape != (dim, dim) or 2**num_qubits != dim:
            raise ValueError(f"matrix shape {matrix.shape} is not a square power of two")
        state = cls(num_qubits, matrix)
        if validate:
            state.check()
        return state

    @classmethod
    def from_vector(cls, amplitudes: np.ndarray) -> "QuantumState":
        """Build the pure state ``|psi><psi|`` from a normalized amplitude vector."""
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > STRUCTURAL_ATOL:
            raise ValueError(f"amplitude vector has norm {norm}, expected 1")
        return cls.from_matrix(np.outer(v, v.conj()), validate=False)

    def check(self) -> "QuantumState":
        """Validate trace, hermiticity and positivity; return self."""
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > STRUCTURAL_ATOL:
            raise ValueError(f"trace is {tr}, expected 1 within {STRUCTURAL_ATOL}")
        herm_err = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm_err > STRUCTURAL_ATOL:
            raise ValueError(f"matrix deviates from hermiticity by {herm_err}")
        min_eig = float(np.linalg.eigvalsh(self.matrix).min())
        if min_eig < -STRUCTURAL_ATOL:
            raise ValueError(f"minimum eigenvalue {min_eig} below -{STRUCTURAL_ATOL}")
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, atol: float = SCALAR_ATOL) -> bool:
        return abs(self.purity() - 1.0) <= atol

    def tensor(self, other: "QuantumState") -> "QuantumState":
        return QuantumState(
            self.num_qubits + other.num_qubits,
            np.kron(self.matrix, other.matrix),
        )


@dataclass(frozen=True)
class GateSpec:
    """A named gate applied to an ordered tuple of target qubits.

    Controlled gates list the control first, then the target.
    """

    name: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}; supported: {GATE_NAMES}")
        arity = 1 if self.name in _SINGLE_QUBIT_GATES else 2
        if len(self.targets) != arity:
            raise ValueError(f"gate {self.name} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")

    def matrix(self) -> np.ndarray:
        if self.name in _SINGLE_QUBIT_GATES:
            u = _SINGLE_QUBIT_GATES[self.name]
        else:
            pauli = _CONTROLLED_GATES[self.name]
            p0 = np.diag([1.0, 0.0]).astype(complex)
            p1 = np.diag([0.0, 1.0]).astype(complex)
            u = np.kron(p0, I2) + np.kron(p1, pauli)
        unit_err = float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))
        if unit_err > UNITARY_ATOL:
            raise ValueError(f"gate {self.name} is not unitary within {UNITARY_ATOL}")
        return u


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a single-qubit computational-basis measurement."""

    qubit: int
    bit: int
    probability: float


def new_register(num_qubits: int, init: str) -> QuantumState:
    """Allocate a register in the computational basis state ``|init>``."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"register size {num_qubits} outside [1, {MAX_QUBITS}]")
    if len(init) != num_qubits or set(init) - {"0", "1"}:
        raise ValueError(f"init {init!r} must be {num_qubits} characters of 0/1")
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    idx = int(init, 2)
    matrix[idx, idx] = 1.0
    return QuantumState(num_qubits, matrix)


def embed_operator(op: np.ndarray, targets: Sequence[int], num_qubits: int) -> np.ndarray:
    """Lift an operator on ``targets`` to the full register dimension."""
    n = num_qubits
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex)).reshape((2,) * (2 * n))
    order = list(targets) + rest
    inverse = np.argsort(order)
    axes = list(inverse) + [n + i for i in inverse]
    return full.transpose(axes).reshape(2**n, 2**n)


def apply_on_targets(
    rho: np.ndarray, op: np.ndarray, targets: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Return ``(op on targets) rho (op^dagger on targets)`` without embedding
    ``op`` into the full register dimension."""
    n = num_qubits
    k = len(targets)
    op_t = op.reshape((2,) * (2 * k))
    rho_t = rho.reshape((2,) * (2 * n))
    rho_labels = list(range(2 * n))
    op_out = [2 * n + j for j in range(k)]
    op_in = [targets[j] for j in range(k)]
    conj_out = [2 * n + k + j for j in range(k)]
    conj_in = [n + targets[j] for j in range(k)]
    out_labels = []
    for q in range(n):
        out_labels.append(op_out[targets.index(q)] if q in targets else q)
    for q in range(n):
        out_labels.append(conj_out[targets.index(q)] if q in targets else n + q)
    result = np.einsum(
        op_t, op_out + op_in, rho_t, rho_labels, op_t.conj(), conj_out + conj_in, out_labels
    )
    return result.reshape(2**n, 2**n)


# Up to this register size an operator is applied embedded in the full
# register, as two matmuls: 5-6x faster than contracting on the targets at
# n <= 4.  Above it the 4^n-sized embedding is not built.
EMBED_QUBIT_LIMIT = 6
# Keys are (gate name or channel, targets, register size); a channel hashes
# by identity and stays alive while cached.  Oldest out beyond the size.
EMBED_CACHE_SIZE = 256
_EMBED_CACHE: dict[tuple[Hashable, tuple[int, ...], int], tuple[np.ndarray, ...]] = {}


def embedded_operators(
    key: Hashable,
    ops: Callable[[], Sequence[np.ndarray]],
    targets: tuple[int, ...],
    num_qubits: int,
) -> tuple[np.ndarray, ...]:
    """Read-only full-register forms of ``ops()`` on ``targets``, cached
    under ``key``; ``ops`` is only called on a cache miss."""
    cache_key = (key, targets, num_qubits)
    cached = _EMBED_CACHE.get(cache_key)
    if cached is None:
        cached = tuple(embed_operator(op, targets, num_qubits) for op in ops())
        for matrix in cached:
            matrix.flags.writeable = False
        if len(_EMBED_CACHE) >= EMBED_CACHE_SIZE:
            del _EMBED_CACHE[next(iter(_EMBED_CACHE))]
        _EMBED_CACHE[cache_key] = cached
    return cached


def apply_unitary(state: QuantumState, gate: GateSpec) -> QuantumState:
    for q in gate.targets:
        if not 0 <= q < state.num_qubits:
            raise IndexError(f"gate target {q} outside register of {state.num_qubits} qubits")
    if state.num_qubits <= EMBED_QUBIT_LIMIT:
        (u,) = embedded_operators(
            gate.name, lambda: (gate.matrix(),), gate.targets, state.num_qubits
        )
        return QuantumState(state.num_qubits, u @ state.matrix @ u.conj().T)
    new_matrix = apply_on_targets(state.matrix, gate.matrix(), gate.targets, state.num_qubits)
    return QuantumState(state.num_qubits, new_matrix)


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
        raise RenormalizationError(
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


def von_neumann_entropy(state: QuantumState) -> float:
    """Entropy in bits: ``-sum(lambda * log2(lambda))`` over the spectrum.

    Eigenvalues below the floor contribute zero; anything below the
    structural negativity budget is rejected as an invalid state.
    """
    evals = np.linalg.eigvalsh(state.matrix)
    if float(evals.min()) < -STRUCTURAL_ATOL:
        raise ValueError(f"state has eigenvalue {evals.min()} below -{STRUCTURAL_ATOL}")
    evals = np.clip(evals, 0.0, 1.0)
    lam = evals[evals >= EIGENVALUE_FLOOR]
    if lam.size == 0:
        return 0.0
    return float(-(lam * np.log2(lam)).sum())


def fidelity(state: QuantumState, reference: QuantumState) -> float:
    """``<psi|rho|psi>`` against a pure reference state."""
    if reference.num_qubits != state.num_qubits:
        raise ValueError("state and reference have different register sizes")
    if abs(reference.purity() - 1.0) > STRUCTURAL_ATOL:
        raise ValueError("reference state must be pure")
    value = float(np.real(np.trace(state.matrix @ reference.matrix)))
    return min(max(value, 0.0), 1.0)


def random_pure_state(rng: np.random.Generator, num_qubits: int = 1) -> QuantumState:
    """Haar-random pure state drawn from the given generator."""
    dim = 2**num_qubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return QuantumState(num_qubits, np.outer(v, v.conj()))
