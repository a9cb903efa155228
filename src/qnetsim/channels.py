"""CPTP channel models: Kraus sets, serial composition, a causal-order
switch, and Holevo rates.

A channel on k qubits is a tuple of square ``2^k x 2^k`` Kraus operators
satisfying completeness ``sum(K^dag K) = I`` within 1e-10.  The switch
places two qubit channels in a superposition of application orders
selected by a control qubit; measuring that control in the ``|+>/|->``
basis and keeping the classical outcome is what distinguishes it from a
definite-order composition.

A rate is the Holevo information of the equiprobable ``{|0>, |1>}``
source: ``holevo_information`` for one qubit channel and
``switch_holevo_information`` for two of them in the switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import UnsupportedDimensionError
from .fields import Fields
from .qstate import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SCALAR_ATOL,
    STRUCTURAL_ATOL,
    EIGENVALUE_FLOOR,
    QuantumState,
    embedded_operators,
    von_neumann_entropy,
)

PLUS_MINUS_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_PLUS = np.full((2, 2), 0.5, dtype=complex)
# Switch inputs: system |0> or |1>, control |+>.
_SWITCH_INPUTS = tuple(np.kron(p, _PLUS) for p in (_P0, _P1))
# Projectors of the control factor onto |+> and |->.
_CONTROL_PROJECTORS = tuple(np.kron(I2, np.outer(v, v.conj())) for v in PLUS_MINUS_BASIS.T)


@dataclass(eq=False)
class ChannelModel:
    """Kraus representation of a completely positive trace-preserving map
    on k >= 1 qubits; its operators share one ``dim x dim`` shape, ``dim = 2^k``.

    Compared and hashed by identity, so a channel can key the embed cache
    in ``qstate``.
    """

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.kraus_ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not self.kraus_ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = self.kraus_ops[0].shape
        self.dim = dim = shape[0] if shape else 0
        for k in self.kraus_ops:
            if k.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
                raise ValueError(f"Kraus operators must share one 2^k x 2^k shape, got {k.shape}")
        # A NaN entry would make the completeness error NaN, which passes
        # the tolerance test below.
        if not np.isfinite(self.kraus_ops).all():
            raise ValueError("Kraus operators have a non-finite entry")
        total = sum(k.conj().T @ k for k in self.kraus_ops)
        err = float(np.max(np.abs(total - np.eye(self.dim))))
        if err > STRUCTURAL_ATOL:
            raise ValueError(f"Kraus completeness violated by {err}")

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Kraus sum on a raw density matrix of dimension ``dim``."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out


@dataclass(frozen=True)
class BottleneckReport:
    """Data-processing check for a serial composition."""

    chi_first: float
    chi_second: float
    chi_serial: float
    holds: bool


def identity_channel(num_qubits: int = 1) -> ChannelModel:
    return ChannelModel((np.eye(2**num_qubits, dtype=complex),))


def depolarizing_channel(p: float) -> ChannelModel:
    """Qubit depolarizing channel with Kraus weights
    ``{sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    ops = (
        np.sqrt(1.0 - 3.0 * p / 4.0) * I2,
        np.sqrt(p / 4.0) * PAULI_X,
        np.sqrt(p / 4.0) * PAULI_Y,
        np.sqrt(p / 4.0) * PAULI_Z,
    )
    return ChannelModel(ops)


def apply_channel(
    channel: ChannelModel, state: QuantumState, targets: Sequence[int]
) -> QuantumState:
    """Apply a channel to the qubits ``targets`` of a register."""
    targets = tuple(targets)
    k = channel.dim.bit_length() - 1
    if len(targets) != k:
        raise ValueError(f"channel acts on {k} qubit(s), got targets {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < state.num_qubits:
            raise IndexError(f"target {q} outside register of {state.num_qubits} qubits")
    n = state.num_qubits
    out = np.zeros_like(state.matrix)
    for kraus in embedded_operators(channel, lambda: channel.kraus_ops, targets, n):
        out += kraus @ state.matrix @ kraus.conj().T
    return QuantumState(n, out)


def compose_serial(first: ChannelModel, second: ChannelModel) -> ChannelModel:
    """Channel applying ``first`` then ``second``; Kraus set ``{K2 K1}``."""
    if first.dim != second.dim:
        raise ValueError(f"cannot compose: first dim {first.dim} != second dim {second.dim}")
    return ChannelModel(tuple(k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops))


def quantum_switch(first: ChannelModel, second: ChannelModel) -> ChannelModel:
    """Superpose the two application orders of a pair of qubit channels.

    The returned channel acts on (system, control); Kraus operators are
    ``W_ij = K2_i K1_j (x) |0><0| + K1_j K2_i (x) |1><1|``, so a control in
    ``|0>`` applies ``first`` then ``second`` and ``|1>`` the reverse.  With
    the control as the last factor, the even rows and columns of ``W_ij``
    hold ``K2_i K1_j`` and the odd ones ``K1_j K2_i``.
    """
    for c in (first, second):
        if c.dim != 2:
            raise UnsupportedDimensionError("switch requires single-qubit channels")
    ops = []
    for ki in second.kraus_ops:
        for kj in first.kraus_ops:
            w = np.zeros((4, 4), dtype=complex)
            w[0::2, 0::2] = ki @ kj
            w[1::2, 1::2] = kj @ ki
            ops.append(w)
    return ChannelModel(tuple(ops))


def _measure_control_blocks(joint: np.ndarray) -> np.ndarray:
    """Measure the control factor in the ``|+>/|->`` basis and keep the
    classical outcome: returns the block-diagonal flag (x) system state."""
    out = np.zeros((4, 4), dtype=complex)
    for m, proj in enumerate(_CONTROL_PROJECTORS):
        block = np.einsum("abcb->ac", (proj @ joint @ proj).reshape(2, 2, 2, 2))
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = block
    return out


def _holevo_bits(outputs: list[np.ndarray]) -> float:
    """Holevo quantity ``S(avg) - avg S`` in bits of equiprobable outputs."""
    dim = outputs[0].shape[0]
    num_qubits = dim.bit_length() - 1
    avg = sum(0.5 * out for out in outputs)
    chi = von_neumann_entropy(QuantumState(num_qubits, avg))
    for out in outputs:
        chi -= 0.5 * von_neumann_entropy(QuantumState(num_qubits, out))
    if chi < -SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} is negative beyond tolerance")
    chi = max(chi, 0.0)
    bound = np.log2(dim)
    if chi > bound + SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} exceeds log2({dim})")
    return min(chi, bound)


def holevo_information(channel: ChannelModel) -> float:
    """Holevo rate in bits of a qubit channel fed ``|0>`` or ``|1>``."""
    if channel.dim != 2:
        raise UnsupportedDimensionError(
            f"Holevo rate needs a qubit channel, got dimension {channel.dim}"
        )
    return _holevo_bits([channel.apply_matrix(p) for p in (_P0, _P1)])


def switch_holevo_information(first: ChannelModel, second: ChannelModel) -> float:
    """Holevo rate in bits of the switch of two qubit channels.

    The control starts in ``|+>`` and is measured in the ``|+>/|->``
    basis after the switch; its outcome is kept as a classical flag
    beside the system's output.
    """
    switch = quantum_switch(first, second)
    return _holevo_bits(
        [_measure_control_blocks(switch.apply_matrix(joint)) for joint in _SWITCH_INPUTS]
    )


def bottleneck_check(first: ChannelModel, second: ChannelModel) -> BottleneckReport:
    """Verify the composed channel carries no more information than either
    stage alone: ``chi(second . first) <= min(chi(first), chi(second))``."""
    chi_first = holevo_information(first)
    chi_second = holevo_information(second)
    chi_serial = holevo_information(compose_serial(first, second))
    holds = chi_serial <= min(chi_first, chi_second) + SCALAR_ATOL
    return BottleneckReport(chi_first, chi_second, chi_serial, holds)


def reduce_kraus(channel: ChannelModel) -> ChannelModel:
    """Minimal Kraus set via eigendecomposition of the Choi matrix.

    Serial composition multiplies Kraus counts; this keeps long path
    channels at no more than ``dim**2`` operators.
    """
    dim = channel.dim
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in channel.kraus_ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    evals, evecs = np.linalg.eigh(choi)
    ops = []
    for lam, vec in zip(evals, evecs.T):
        if lam > EIGENVALUE_FLOOR:
            ops.append(np.sqrt(lam) * vec.reshape(dim, dim))
    return ChannelModel(tuple(ops))


def channel_from_spec(spec: Any, where: str = "channel") -> ChannelModel:
    """Build a channel from its structured-text description at ``where``.

    ``{"type": "depolarizing", "p": x}`` or
    ``{"type": "kraus-list", "kraus": [...]}`` with each operator given as
    row-major ``[re, im]`` pairs.
    """
    fields = Fields(spec, where)
    kind = fields.value("type")
    if kind == "depolarizing":
        channel = depolarizing_channel(fields.probability("p"))
    elif kind == "kraus-list":
        kraus = fields.items("kraus")
        try:
            channel = ChannelModel(
                tuple([[complex(re, im) for re, im in row] for row in op] for op in kraus)
            )
        except (TypeError, ValueError) as exc:
            raise fields.error(f"kraus: {exc}") from exc
    else:
        raise fields.error(f"unknown channel type {kind!r}")
    fields.done()
    return channel

