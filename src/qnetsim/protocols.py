"""Entanglement-based protocols: teleportation, superdense coding,
entanglement swapping and W-state leader election.

The Bell services compute on a pair's real 4x4 correlation matrix
``T_ij = tr(rho P_i (x) P_j)``, ``P = I, X, Y, Z``, since a Bell
measurement is linear in ``T``; ``bell_pair_correlations`` builds every
pair, phi+ with a channel on each half.  Teleporting over a pair is one 4x4
Pauli-transfer map per Bell outcome (``teleport_table``), which gives a
payload's outcome weights and corrected fidelity as plain floats
(``teleport_weights``, ``teleport_fidelity``).  A swap teleports half of
one pair over the other (``swap_outcome_table``).  Superdense encoding
flips the signs of rows of ``T``, and decoding reads the Bell overlaps
off its diagonal (``superdense_distribution``).  ``draw_bell_outcome``
draws an outcome; the caller sends its bits as a ``CorrectionMessage``,
and only the delivered bits select the corrected output.  On a register,
``bell_basis_measure`` measures and ``pauli_correct`` corrects; no scenario
calls either.

Leader election samples a W state's diagonal with no classical exchange;
``w_election_probabilities`` is its closed form, 1/n for each of n nodes.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qstate import (
    EIGENVALUE_FLOOR,
    GateSpec,
    QuantumState,
    apply_unitary,
)

W_STATE_MAX_NODES = 10
# The largest count one NumPy binomial or multinomial draw takes, and the
# value at which NumPy clamps a geometric draw.
MAX_DRAW_COUNT = 2**63 - 1


class Purpose(enum.Enum):
    TELEPORT = "teleport"
    SWAP = "swap"


@dataclass(frozen=True)
class CorrectionMessage:
    """Exactly two classical bits steering a Pauli correction."""

    bits: tuple[int, int]
    origin: str
    target: str
    purpose: Purpose

    def __post_init__(self):
        if len(self.bits) != 2 or set(self.bits) - {0, 1}:
            raise ValueError(f"correction message needs exactly 2 bits, got {self.bits}")


# A Bell outcome (z, x), phase bit then parity bit, is also the superdense
# message.  Its ket (|0 x> + (-1)^z |1 (1-x)>) / sqrt(2) is Z^z X^x on the
# first qubit of phi+ up to a global phase: phi+, psi+, phi-, psi-.
SUPERDENSE_MESSAGES: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
_BELL_KETS = np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex
) / np.sqrt(2)
_BELL_KETS.flags.writeable = False
_BELL_MATRIX = np.outer(_BELL_KETS[0], _BELL_KETS[0].conj())
# The signs S_m of I, X, Y, Z under each outcome's frame Z^z X^x, and phi+
# = (II + XX - YY + ZZ) / 4 as the diagonal D of its correlation matrix.
# Bell state m is then the diagonal S_m D.
_FRAME_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], float)
PHI_PLUS_DIAGONAL = np.array([1.0, 1.0, -1.0, 1.0])
PHI_PLUS_DIAGONAL.flags.writeable = False
_BELL_DIAGONALS = _FRAME_SIGNS * PHI_PLUS_DIAGONAL


def werner_pair(w: float) -> QuantumState:
    """Bell pair mixed with white noise: ``w |phi+><phi+| + (1-w) I/4``."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight {w} outside [0, 1]")
    return QuantumState(2, w * _BELL_MATRIX + (1.0 - w) * np.eye(4) / 4.0)


def _one_hot_indices(n: int) -> list[int]:
    """Basis index of the bitstring whose only 1 is on qubit ``q``, for each ``q``."""
    return [1 << (n - 1 - q) for q in range(n)]


def _check_w_size(n: int) -> None:
    if not 2 <= n <= W_STATE_MAX_NODES:
        raise ValueError(f"W state size {n} outside [2, {W_STATE_MAX_NODES}]")


def make_w_state(n: int) -> QuantumState:
    """Equal superposition of all weight-one bitstrings over ``n`` nodes:
    ``1/sqrt(n)`` on each, qubit 0 the most significant bit."""
    _check_w_size(n)
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[_one_hot_indices(n)] = 1.0 / np.sqrt(n)
    return QuantumState(n, np.outer(amplitudes, amplitudes.conj()))


def cumulative_weights(weights: Iterable[float]) -> tuple[float, ...]:
    """The table a draw from ``weights`` searches: the weights clipped at
    0, summed cumulatively in order and normalised to end at 1, as plain
    floats.  A caller that draws from one set of weights many times
    builds it once."""
    total = 0.0
    running = []
    for weight in weights:
        total += max(float(weight), 0.0)
        running.append(total)
    return tuple([value / total for value in running])


def _draw_index(cumulative: Sequence[float], rng: np.random.Generator) -> int:
    """Index drawn from a ``cumulative_weights`` table with exactly one
    ``rng.random()`` draw: the first entry above the draw."""
    return min(bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def _bell_branches(state: QuantumState, qubit_a: int, qubit_b: int) -> np.ndarray:
    """``<B|rho|B>`` for each Bell ket ``B`` on the pair ``(qubit_a, qubit_b)``:
    the unnormalised state of the other qubits (ascending order) after each
    outcome, stacked in ``SUPERDENSE_MESSAGES`` order.  Its trace is the
    outcome's probability."""
    n = state.num_qubits
    if qubit_a == qubit_b or not (0 <= qubit_a < n and 0 <= qubit_b < n):
        raise IndexError(f"Bell pair ({qubit_a}, {qubit_b}) is not two qubits of {n}")
    order = [qubit_a, qubit_b] + [q for q in range(n) if q not in (qubit_a, qubit_b)]
    rest_dim = 2 ** (n - 2)
    pair_first = state.matrix.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    pair_rows = pair_first.reshape(4, rest_dim, 4, rest_dim)
    return np.einsum("kr,rxsy,ks->kxy", _BELL_KETS.conj(), pair_rows, _BELL_KETS)


def draw_bell_outcome(
    weights: Sequence[float], cumulative: Sequence[float], rng: np.random.Generator
) -> int:
    """Index of one Bell outcome, drawn from its ``weights`` (of
    ``teleport_weights``, ``swap_outcome_table`` or a register's Bell
    branches) with one ``rng.random()`` draw; ``cumulative`` is
    ``cumulative_weights(weights)``.

    Raises ``ArithmeticError`` when the drawn weight is below
    ``EIGENVALUE_FLOOR``: that branch cannot be normalised.
    """
    index = _draw_index(cumulative, rng)
    if weights[index] < EIGENVALUE_FLOOR:
        raise ArithmeticError(
            f"Bell outcome {SUPERDENSE_MESSAGES[index]} has weight {weights[index]}"
        )
    return index


def bell_basis_measure(
    state: QuantumState, qubit_a: int, qubit_b: int, rng: np.random.Generator
) -> tuple[tuple[int, int], QuantumState]:
    """Measure a qubit pair in the Bell basis with one ``rng.random()`` draw.

    Returns the outcome ``(phase_bit, parity_bit)`` and the renormalised
    state of the other qubits in ascending order.
    """
    branches = _bell_branches(state, qubit_a, qubit_b)
    weights = np.real(np.trace(branches, axis1=1, axis2=2))
    index = draw_bell_outcome(weights, cumulative_weights(weights), rng)
    return SUPERDENSE_MESSAGES[index], QuantumState(
        state.num_qubits - 2, branches[index] / weights[index]
    )


def pauli_correct(state: QuantumState, qubit: int, bits: tuple[int, int]) -> QuantumState:
    """Apply the Pauli frame ``Z^z X^x`` of ``bits = (z, x)`` to ``qubit``:
    X if the parity bit, then Z if the phase bit.  It undoes the frame a
    Bell outcome leaves, and it is the frame a superdense message writes;
    on a density matrix the order of X and Z does not matter."""
    if bits[1]:
        state = apply_unitary(state, GateSpec("X", (qubit,)))
    if bits[0]:
        state = apply_unitary(state, GateSpec("Z", (qubit,)))
    return state


def bell_pair_correlations(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Correlation matrix ``R1 D R2^T`` of phi+ (correlations ``D``) with
    the channels of Pauli transfer matrices ``first`` (``R1``) and
    ``second`` (``R2``) on its first and second halves."""
    return (first * PHI_PLUS_DIAGONAL) @ second.T


def teleport_table(correlations: np.ndarray) -> np.ndarray:
    """Teleportation over a pair of ``correlations`` ``T`` as one real 4x4
    map per Bell outcome.

    Teleporting is linear in the payload, so for a payload with Pauli
    vector ``v = (1, r)``, outcome ``m``'s corrected, unnormalised output
    has Pauli vector ``table[m] @ v``: its entry 0 is the outcome's
    weight and entries 1-3 its unnormalised Bloch vector.  It is
    ``table[m] = S_m T^T S_m D / 4`` for the frame signs ``S_m`` and
    phi+'s diagonal ``D``, as diagonal matrices, for any two-qubit resource.
    """
    return 0.25 * _FRAME_SIGNS[:, :, None] * correlations.T * _BELL_DIAGONALS[:, None, :]


def teleport_weights(
    table: Sequence[Sequence[Sequence[float]]], r: tuple[float, float, float]
) -> tuple[float, ...]:
    """Weight ``(table[m] @ (1, r))[0]`` of each Bell outcome when a payload
    of Bloch vector ``r`` is teleported; plain floats, ``table`` a
    ``teleport_table`` as nested lists."""
    x, y, z = r
    weights = []
    for branch in table:
        t0, t1, t2, t3 = branch[0]
        weights.append(t0 + t1 * x + t2 * y + t3 * z)
    return tuple(weights)


def teleport_fidelity(branch: Sequence[Sequence[float]], r: tuple[float, float, float]) -> float:
    """Fidelity with the pure payload of Bloch vector ``r`` of the
    corrected output of one outcome, ``branch = table[m]``: with
    ``(w, s) = branch @ (1, r)``, it is ``(1 + r . s / w) / 2``, clipped
    to [0, 1] as ``fidelity`` clips."""
    x, y, z = r
    weight, s_x, s_y, s_z = (t0 + t1 * x + t2 * y + t3 * z for t0, t1, t2, t3 in branch)
    value = (1.0 + (x * s_x + y * s_y + z * s_z) / weight) / 2.0
    return min(max(value, 0.0), 1.0)


def superdense_encode(bits: tuple[int, int], correlations: np.ndarray) -> np.ndarray:
    """Encode two bits on the sender's half, the first qubit, of a pair of
    ``correlations``.

    Returns the correlations of the pair as handed to the receiver, who
    then holds both halves: the frame ``Z^z X^x`` on the first qubit flips
    the sign of each row ``i`` whose Pauli ``P_i`` it anticommutes with.
    """
    if len(bits) != 2 or set(bits) - {0, 1}:
        raise ValueError(f"message must be two bits, got {bits}")
    return _FRAME_SIGNS[2 * bits[0] + bits[1]][:, None] * correlations


def superdense_distribution(joint: np.ndarray) -> np.ndarray:
    """Probabilities of the four Bell outcomes of the received pair of
    correlations ``joint``, in ``SUPERDENSE_MESSAGES`` order, clipped at 0
    and normalised.

    Raises ``RuntimeError`` when the pair is not within fidelity 0.5 of
    any Bell state.
    """
    overlaps = 0.25 * _BELL_DIAGONALS @ np.diag(joint)
    best = int(np.argmax(overlaps))
    if overlaps[best] < 0.5:
        raise RuntimeError(f"best Bell overlap {overlaps[best]:.4f} below 0.5")
    probabilities = np.clip(overlaps, 0.0, None)
    return probabilities / probabilities.sum()


def superdense_decode(joint: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Bell-basis measurement of the received pair, returning the message
    drawn from ``superdense_distribution(joint)``."""
    distribution = superdense_distribution(joint)
    return SUPERDENSE_MESSAGES[_draw_index(cumulative_weights(distribution), rng)]


def swap_outcome_table(
    left: np.ndarray, right: np.ndarray
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Each outcome's weight and corrected phi+ fidelity of the end pair,
    in ``SUPERDENSE_MESSAGES`` order and as plain floats, when the middle
    node Bell-measures its halves of the pairs of correlations ``left``
    and ``right``.

    The swap teleports the middle node's half of ``left`` over ``right``,
    so outcome ``m`` leaves the unnormalised end pair of correlations
    ``C = left @ teleport_table(right)[m]^T``: weight ``C[0, 0]``,
    fidelity ``D . diag(C) / (4 C[0, 0])`` clipped to [0, 1], and NaN for
    an outcome below ``EIGENVALUE_FLOOR``, which is never normalised.
    """
    ends = left @ teleport_table(right).transpose(0, 2, 1)
    weights = ends[:, 0, 0].tolist()
    overlaps = (np.diagonal(ends, axis1=1, axis2=2) @ PHI_PLUS_DIAGONAL / 4.0).tolist()
    fidelities = [
        min(max(overlap / weight, 0.0), 1.0) if weight >= EIGENVALUE_FLOOR else float("nan")
        for weight, overlap in zip(weights, overlaps)
    ]
    return tuple(weights), tuple(fidelities)


def w_election_round(
    state: QuantumState, rng: np.random.Generator
) -> tuple[int, tuple[int, ...]]:
    """One leader-election round: measure every qubit of a W state.

    All qubits are read out in the computational basis; the node holding
    the only 1 wins, and no classical message is exchanged.  A state with
    weight of at least ``EIGENVALUE_FLOOR`` off the weight-one bitstrings
    raises ``ValueError`` before any draw.
    """
    n = state.num_qubits
    weights = np.real(np.diag(state.matrix))
    one_hot = _one_hot_indices(n)
    if np.delete(weights, one_hot).sum() >= EIGENVALUE_FLOOR:
        raise ValueError("election needs a W state: it has weight off the one-hot strings")
    # In basis order the one-hot strings run from the last node to the first.
    winner = n - 1 - _draw_index(cumulative_weights(weights[one_hot[::-1]]), rng)
    return winner, tuple(int(q == winner) for q in range(n))


def w_election_probabilities(n: int) -> np.ndarray:
    """Win probability of each of ``n`` nodes in one W-state election round:
    the W state's Born weight ``1/n`` on each weight-one bitstring, from
    its closed form, with no state vector built."""
    _check_w_size(n)
    return np.full(n, 1.0 / n)
