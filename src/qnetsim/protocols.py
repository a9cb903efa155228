"""Entanglement-based protocols: teleportation, superdense coding,
entanglement swapping and W-state leader election.

Protocols that move quantum information (teleport, swap) run in two
steps.  The first Bell-measures at the sending node, consumes its inputs
and returns the two-bit ``CorrectionMessage`` together with the
destination's state before correction.  The caller delivers the message
however its classical plane allows; only ``apply_correction`` on a
delivered message turns that state into the protocol's output, so a
destination that never hears from the sender never guesses.  Leader
election is the opposite extreme: it resolves without any classical
exchange.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConsumedResourceError, DecodeAmbiguityError
from .qstate import (
    I2,
    PAULI_X,
    PAULI_Z,
    GateSpec,
    QuantumState,
    apply_unitary,
    measure,
    new_register,
    partial_trace,
)

W_STATE_MAX_NODES = 10


class ResourceKind(enum.Enum):
    BELL_PHI_PLUS = "bell_phi_plus"
    W_STATE = "w_state"


class Purpose(enum.Enum):
    TELEPORT = "teleport"
    SWAP = "swap"


@dataclass
class EntangledResource:
    """A shared multi-qubit state plus the node that holds each qubit."""

    state: QuantumState
    kind: ResourceKind
    holders: tuple[str, ...]
    consumed: bool = False

    def __post_init__(self):
        if len(self.holders) != self.state.num_qubits:
            raise ValueError(
                f"{len(self.holders)} holders for {self.state.num_qubits} qubits"
            )
        if self.kind is ResourceKind.BELL_PHI_PLUS and self.state.num_qubits != 2:
            raise ValueError("Bell resource must span exactly two qubits")


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


_BELL_MATRIX: np.ndarray | None = None
_W_MATRIX_CACHE: dict[int, np.ndarray] = {}


def _phi_plus_matrix() -> np.ndarray:
    global _BELL_MATRIX
    if _BELL_MATRIX is None:
        state = new_register(2, "00")
        state = apply_unitary(state, GateSpec("H", (0,)))
        state = apply_unitary(state, GateSpec("CNOT", (0, 1)))
        _BELL_MATRIX = state.matrix
        _BELL_MATRIX.flags.writeable = False
    return _BELL_MATRIX


def phi_plus_state() -> QuantumState:
    return QuantumState(2, _phi_plus_matrix())


def make_bell_pair(holders: tuple[str, str] = ("a", "b")) -> EntangledResource:
    """Maximally entangled pair prepared by H then CNOT on ``|00>``."""
    return EntangledResource(phi_plus_state(), ResourceKind.BELL_PHI_PLUS, holders)


def werner_pair(w: float, holders: tuple[str, str] = ("a", "b")) -> EntangledResource:
    """Bell pair mixed with white noise: ``w |phi+><phi+| + (1-w) I/4``."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"Werner weight {w} outside [0, 1]")
    matrix = w * _phi_plus_matrix() + (1.0 - w) * np.eye(4) / 4.0
    return EntangledResource(QuantumState(2, matrix), ResourceKind.BELL_PHI_PLUS, holders)


def make_w_state(n: int, holders: tuple[str, ...] | None = None) -> EntangledResource:
    """Equal superposition of all weight-one bitstrings over ``n`` nodes."""
    if not 2 <= n <= W_STATE_MAX_NODES:
        raise CapacityError(f"W state size {n} outside [2, {W_STATE_MAX_NODES}]")
    if n not in _W_MATRIX_CACHE:
        dim = 2**n
        amplitudes = np.zeros(dim, dtype=complex)
        for q in range(n):
            amplitudes[1 << (n - 1 - q)] = 1.0 / np.sqrt(n)
        matrix = np.outer(amplitudes, amplitudes.conj())
        matrix.flags.writeable = False
        _W_MATRIX_CACHE[n] = matrix
    if holders is None:
        holders = tuple(f"n{i}" for i in range(n))
    return EntangledResource(QuantumState(n, _W_MATRIX_CACHE[n]), ResourceKind.W_STATE, holders)


def bell_basis_measure(
    state: QuantumState, qubit_a: int, qubit_b: int, rng: np.random.Generator
) -> tuple[tuple[int, int], QuantumState]:
    """Measure a qubit pair in the Bell basis via CNOT, H, then two
    computational measurements.  Returns ``(phase_bit, parity_bit)``."""
    state = apply_unitary(state, GateSpec("CNOT", (qubit_a, qubit_b)))
    state = apply_unitary(state, GateSpec("H", (qubit_a,)))
    out_a, state = measure(state, qubit_a, rng)
    out_b, state = measure(state, qubit_b, rng)
    return (out_a.bit, out_b.bit), state


def pauli_correct(state: QuantumState, qubit: int, bits: tuple[int, int]) -> QuantumState:
    """Undo the Bell-outcome Pauli frame: X if parity bit, then Z if phase bit."""
    if bits[1]:
        state = apply_unitary(state, GateSpec("X", (qubit,)))
    if bits[0]:
        state = apply_unitary(state, GateSpec("Z", (qubit,)))
    return state


def apply_correction(state: QuantumState, message: CorrectionMessage) -> QuantumState:
    """Second step of teleport and swap: apply a delivered correction to
    the destination's qubit, which is the last qubit of ``state``."""
    return pauli_correct(state, state.num_qubits - 1, message.bits)


def teleport(
    payload: QuantumState, resource: EntangledResource, rng: np.random.Generator
) -> tuple[CorrectionMessage, QuantumState]:
    """First step of teleporting a one-qubit payload over a Bell resource.

    Bell-measures the payload with the sender's half and consumes the
    resource.  Returns the two-bit correction addressed to the
    destination and the destination's qubit before correction.
    """
    if payload.num_qubits != 1:
        raise ValueError("payload must be a single qubit")
    if resource.kind is not ResourceKind.BELL_PHI_PLUS:
        raise ValueError("teleport needs a Bell-pair resource")
    if resource.consumed:
        raise ConsumedResourceError("teleport resource already consumed")
    joint = payload.tensor(resource.state)
    bits, post = bell_basis_measure(joint, 0, 1, rng)
    resource.consumed = True
    message = CorrectionMessage(
        bits, origin=resource.holders[0], target=resource.holders[1], purpose=Purpose.TELEPORT
    )
    return message, partial_trace(post, (2,))


_ENCODINGS: dict[tuple[int, int], np.ndarray] = {}


def _encoding_unitary(bits: tuple[int, int]) -> np.ndarray:
    # Message (z, x) -> I, X, Z or XZ on the sender's half.
    if not _ENCODINGS:
        _ENCODINGS[(0, 0)] = I2
        _ENCODINGS[(0, 1)] = PAULI_X
        _ENCODINGS[(1, 0)] = PAULI_Z
        _ENCODINGS[(1, 1)] = PAULI_X @ PAULI_Z
    return _ENCODINGS[bits]


_BELL_PROJECTORS: dict[tuple[int, int], np.ndarray] = {}


def _bell_projector(bits: tuple[int, int]) -> np.ndarray:
    if bits not in _BELL_PROJECTORS:
        u = np.kron(_encoding_unitary(bits), np.eye(2))
        _BELL_PROJECTORS[bits] = u @ _phi_plus_matrix() @ u.conj().T
    return _BELL_PROJECTORS[bits]


def superdense_encode(bits: tuple[int, int], resource: EntangledResource) -> QuantumState:
    """Encode two bits on the sender's half of a Bell pair.

    Returns the joint two-qubit state as handed to the receiver, who then
    holds both halves.
    """
    if len(bits) != 2 or set(bits) - {0, 1}:
        raise ValueError(f"message must be two bits, got {bits}")
    if resource.kind is not ResourceKind.BELL_PHI_PLUS:
        raise ValueError("superdense coding needs a Bell-pair resource")
    if resource.consumed:
        raise ConsumedResourceError("superdense resource already consumed")
    u = _encoding_unitary(tuple(bits))
    matrix = np.kron(u, np.eye(2)) @ resource.state.matrix @ np.kron(u, np.eye(2)).conj().T
    return QuantumState(2, matrix)


def superdense_decode(
    joint: QuantumState, rng: np.random.Generator
) -> tuple[int, int]:
    """Bell-basis measurement of the received pair, returning the message.

    Raises a decode-ambiguity error (carrying the best guess) when the
    joint state is not within fidelity 0.5 of any Bell state.
    """
    if joint.num_qubits != 2:
        raise ValueError("superdense decoding needs the two-qubit joint state")
    messages = [(0, 0), (0, 1), (1, 0), (1, 1)]
    overlaps = np.array(
        [np.real(np.trace(joint.matrix @ _bell_projector(m))) for m in messages]
    )
    best = int(np.argmax(overlaps))
    if overlaps[best] < 0.5:
        raise DecodeAmbiguityError(
            f"best Bell overlap {overlaps[best]:.4f} below 0.5", messages[best]
        )
    cumulative = np.cumsum(np.clip(overlaps, 0.0, None))
    cumulative /= cumulative[-1]
    drawn = int(np.searchsorted(cumulative, rng.random(), side="right"))
    return messages[min(drawn, 3)]


def entanglement_swap(
    left: EntangledResource, right: EntangledResource, rng: np.random.Generator
) -> tuple[CorrectionMessage, QuantumState]:
    """First step of splicing two Bell pairs at their shared node.

    ``left`` is held as ``(a, mid)`` and ``right`` as ``(mid, c)``.  The
    middle node Bell-measures its two halves and consumes both pairs.
    Returns the two-bit correction addressed to ``c`` and the ``(a, c)``
    pair before correction.
    """
    for res in (left, right):
        if res.kind is not ResourceKind.BELL_PHI_PLUS:
            raise ValueError("swap needs two Bell-pair resources")
        if res.consumed:
            raise ConsumedResourceError("swap input already consumed")
    if left.holders[1] != right.holders[0]:
        raise ValueError(
            f"pairs do not share a node: {left.holders} vs {right.holders}"
        )
    joint = left.state.tensor(right.state)  # qubits: A, B_left, B_right, C
    bits, post = bell_basis_measure(joint, 1, 2, rng)
    left.consumed = True
    right.consumed = True
    message = CorrectionMessage(
        bits, origin=left.holders[1], target=right.holders[1], purpose=Purpose.SWAP
    )
    return message, partial_trace(post, (0, 3))


def w_election_round(
    resource: EntangledResource, rng: np.random.Generator
) -> tuple[int, tuple[int, ...]]:
    """One leader-election round: measure every qubit of a W state.

    All qubits are read out in the computational basis, which for a W
    state always yields a weight-one bitstring; the node holding the 1
    wins.  No classical messages are exchanged and the resource is
    consumed.
    """
    if resource.kind is not ResourceKind.W_STATE:
        raise ValueError("election needs a W-state resource")
    if resource.consumed:
        raise ConsumedResourceError("W resource already consumed by a previous round")
    n = resource.state.num_qubits
    probabilities = np.real(np.diag(resource.state.matrix))
    cumulative = np.cumsum(np.clip(probabilities, 0.0, None))
    cumulative /= cumulative[-1]
    index = int(np.searchsorted(cumulative, rng.random(), side="right"))
    index = min(index, 2**n - 1)
    outcomes = tuple((index >> (n - 1 - q)) & 1 for q in range(n))
    resource.consumed = True
    if sum(outcomes) != 1:
        raise RuntimeError(f"election produced non one-hot outcome {outcomes}")
    return outcomes.index(1), outcomes
