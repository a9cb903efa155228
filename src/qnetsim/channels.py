"""CPTP channel models: Kraus sets, serial composition, a causal-order
switch, and Holevo-information capacity estimates.

A channel is a tuple of Kraus operators satisfying completeness
``sum(K^dag K) = I`` within 1e-10.  The switch places two qubit channels
in a superposition of application orders selected by a control qubit;
measuring that control in the ``|+>/|->`` basis and keeping the classical
outcome is what distinguishes it from a definite-order composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UnsupportedDimensionError
from .qstate import (
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SCALAR_ATOL,
    STRUCTURAL_ATOL,
    EIGENVALUE_FLOOR,
    EMBED_QUBIT_LIMIT,
    QuantumState,
    apply_on_targets,
    embedded_operators,
    von_neumann_entropy,
)

PLUS_MINUS_BASIS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


@dataclass(eq=False)
class ChannelModel:
    """Kraus representation of a completely positive trace-preserving map.

    Compared and hashed by identity, so a channel can key the embed cache
    in ``qstate``.
    """

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def __post_init__(self):
        self.kraus_ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not self.kraus_ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in self.kraus_ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        total = sum(k.conj().T @ k for k in self.kraus_ops)
        err = float(np.max(np.abs(total - np.eye(self.dim_in))))
        if err > STRUCTURAL_ATOL:
            raise ValueError(f"Kraus completeness violated by {err}")

    @classmethod
    def from_kraus(cls, ops: Sequence[np.ndarray]) -> "ChannelModel":
        mats = [np.asarray(k, dtype=complex) for k in ops]
        dim_out, dim_in = mats[0].shape
        return cls(tuple(mats), dim_in, dim_out)

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Kraus sum on a raw density matrix of dimension ``dim_in``."""
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus_ops:
            out += k @ rho @ k.conj().T
        return out


@dataclass(eq=False)
class SwitchChannel(ChannelModel):
    """Two-qubit channel on (system, control) produced by the causal-order
    switch.  Carries the control state so single-qubit inputs can be lifted
    to the joint space transparently."""

    control: QuantumState = field(default=None)  # type: ignore[assignment]

    def lift(self, system: QuantumState) -> QuantumState:
        if system.num_qubits != 1:
            raise UnsupportedDimensionError("switch system input must be one qubit")
        return system.tensor(self.control)


@dataclass
class Ensemble:
    """Classical-quantum source: ``(probability, state)`` pairs."""

    entries: tuple[tuple[float, QuantumState], ...]

    def __post_init__(self):
        self.entries = tuple((float(p), s) for p, s in self.entries)
        if not self.entries:
            raise ValueError("ensemble must be nonempty")
        for p, _ in self.entries:
            if p < 0:
                raise ValueError(f"ensemble probability {p} is negative")
        total = sum(p for p, _ in self.entries)
        if abs(total - 1.0) > STRUCTURAL_ATOL:
            raise ValueError(f"ensemble probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class CapacityEstimate:
    """Holevo information of a channel for a specific input ensemble.

    This quantity lower-bounds the classical capacity, hence
    ``is_lower_bound`` is always true.
    """

    holevo_bits: float
    ensemble_used: Ensemble
    is_lower_bound: bool = True


@dataclass(frozen=True)
class BottleneckReport:
    """Data-processing check for a serial composition."""

    chi_first: float
    chi_second: float
    chi_serial: float
    holds: bool


def identity_channel(num_qubits: int = 1) -> ChannelModel:
    dim = 2**num_qubits
    return ChannelModel((np.eye(dim, dtype=complex),), dim, dim)


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
    return ChannelModel(ops, 2, 2)


def apply_channel(
    channel: ChannelModel, state: QuantumState, targets: Sequence[int] | None = None
) -> QuantumState:
    """Apply a channel to a whole register, or embed it on ``targets``."""
    if targets is None:
        if state.dim != channel.dim_in:
            raise ValueError(
                f"state dimension {state.dim} != channel input dimension {channel.dim_in}"
            )
        out = channel.apply_matrix(state.matrix)
        num_qubits = int(channel.dim_out).bit_length() - 1
        if 2**num_qubits != channel.dim_out:
            raise UnsupportedDimensionError("channel output dimension is not a power of two")
        return QuantumState(num_qubits, out)

    targets = tuple(targets)
    if channel.dim_in != channel.dim_out:
        raise UnsupportedDimensionError("embedded application needs a square channel")
    k = int(channel.dim_in).bit_length() - 1
    if 2**k != channel.dim_in or len(targets) != k:
        raise ValueError(f"channel acts on {k} qubit(s), got targets {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < state.num_qubits:
            raise IndexError(f"target {q} outside register of {state.num_qubits} qubits")
    n = state.num_qubits
    out = np.zeros_like(state.matrix)
    if n <= EMBED_QUBIT_LIMIT:
        for kraus in embedded_operators(channel, lambda: channel.kraus_ops, targets, n):
            out += kraus @ state.matrix @ kraus.conj().T
    else:
        for kraus in channel.kraus_ops:
            out += apply_on_targets(state.matrix, kraus, targets, n)
    return QuantumState(n, out)


def compose_serial(first: ChannelModel, second: ChannelModel) -> ChannelModel:
    """Channel applying ``first`` then ``second``; Kraus set ``{K2 K1}``."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first output dim {first.dim_out} != second input dim {second.dim_in}"
        )
    ops = tuple(k2 @ k1 for k2 in second.kraus_ops for k1 in first.kraus_ops)
    return ChannelModel(ops, first.dim_in, second.dim_out)


def quantum_switch(
    first: ChannelModel, second: ChannelModel, control: QuantumState
) -> SwitchChannel:
    """Superpose the two application orders of a pair of qubit channels.

    The returned channel acts on (system, control); Kraus operators are
    ``W_ij = K2_i K1_j (x) |0><0| + K1_j K2_i (x) |1><1|``, so a control in
    ``|0>`` applies ``first`` then ``second`` and ``|1>`` the reverse.
    """
    for c in (first, second):
        if c.dim_in != 2 or c.dim_out != 2:
            raise UnsupportedDimensionError("switch requires single-qubit channels")
    if control.num_qubits != 1:
        raise UnsupportedDimensionError("switch control must be a single qubit")
    control.check()
    ops = []
    for ki in second.kraus_ops:
        for kj in first.kraus_ops:
            ops.append(np.kron(ki @ kj, _P0) + np.kron(kj @ ki, _P1))
    return SwitchChannel(tuple(ops), 4, 4, control=control)


def computational_ensemble() -> Ensemble:
    zero = QuantumState(1, _P0.copy())
    one = QuantumState(1, _P1.copy())
    return Ensemble(((0.5, zero), (0.5, one)))


def _trace_out_control(joint: np.ndarray) -> np.ndarray:
    t = joint.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", t)


def _measure_control_blocks(joint: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Measure the control factor in ``basis`` (columns) and keep the
    classical outcome: returns the block-diagonal flag (x) system state."""
    out = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        v = basis[:, m]
        proj = np.kron(I2, np.outer(v, v.conj()))
        block = _trace_out_control(proj @ joint @ proj)
        out[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = block
    return out


def _effective_output(
    channel: ChannelModel,
    state: QuantumState,
    control_measurement: np.ndarray | None,
) -> QuantumState:
    if isinstance(channel, SwitchChannel):
        if state.dim * 2 == channel.dim_in:
            joint_in = channel.lift(state)
        elif state.dim == channel.dim_in:
            joint_in = state
        else:
            raise ValueError(
                f"ensemble state dimension {state.dim} does not fit switch input"
            )
        joint_out = channel.apply_matrix(joint_in.matrix)
        if control_measurement is not None:
            return QuantumState(2, _measure_control_blocks(joint_out, control_measurement))
        return QuantumState(2, _trace_out_control(joint_out))
    if control_measurement is not None:
        raise ValueError("control measurement given but channel has no control qubit")
    if state.dim != channel.dim_in:
        raise ValueError(
            f"ensemble state dimension {state.dim} != channel input dimension {channel.dim_in}"
        )
    return apply_channel(channel, state)


def holevo_information(
    channel: ChannelModel,
    ensemble: Ensemble | None = None,
    control_measurement: np.ndarray | None = None,
) -> CapacityEstimate:
    """Holevo quantity ``S(sum p_x rho'_x) - sum p_x S(rho'_x)`` in bits.

    For a switch channel, single-qubit ensemble states are tensored with
    the stored control.  ``control_measurement`` (a 2x2 matrix whose
    columns are the basis) measures the control and keeps the classical
    outcome as a block-diagonal flag; ``None`` traces the control out.
    """
    if ensemble is None:
        ensemble = computational_ensemble()
    outputs = []
    for p, state in ensemble.entries:
        outputs.append((p, _effective_output(channel, state, control_measurement)))
    dim_eff = outputs[0][1].dim
    avg = sum(p * out.matrix for p, out in outputs)
    chi = von_neumann_entropy(QuantumState(outputs[0][1].num_qubits, avg))
    for p, out in outputs:
        chi -= p * von_neumann_entropy(out)
    if chi < -SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} is negative beyond tolerance")
    chi = max(chi, 0.0)
    bound = np.log2(dim_eff)
    if chi > bound + SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} exceeds log2({dim_eff})")
    return CapacityEstimate(min(chi, bound), ensemble)


def bottleneck_check(
    first: ChannelModel, second: ChannelModel, ensemble: Ensemble | None = None
) -> BottleneckReport:
    """Verify the composed channel carries no more information than either
    stage alone: ``chi(second . first) <= min(chi(first), chi(second))``."""
    chi_first = holevo_information(first, ensemble).holevo_bits
    chi_second = holevo_information(second, ensemble).holevo_bits
    chi_serial = holevo_information(compose_serial(first, second), ensemble).holevo_bits
    holds = chi_serial <= min(chi_first, chi_second) + SCALAR_ATOL
    return BottleneckReport(chi_first, chi_second, chi_serial, holds)


def reduce_kraus(channel: ChannelModel) -> ChannelModel:
    """Minimal Kraus set via eigendecomposition of the Choi matrix.

    Serial composition multiplies Kraus counts; this keeps long path
    channels at no more than ``dim_in * dim_out`` operators.
    """
    d_in, d_out = channel.dim_in, channel.dim_out
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in channel.kraus_ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    evals, evecs = np.linalg.eigh(choi)
    ops = []
    for lam, vec in zip(evals, evecs.T):
        if lam > EIGENVALUE_FLOOR:
            ops.append(np.sqrt(lam) * vec.reshape(d_out, d_in))
    return ChannelModel(tuple(ops), d_in, d_out)


def channel_from_spec(spec: dict) -> ChannelModel:
    """Build a channel from its structured-text description.

    ``{"type": "depolarizing", "p": x}`` or
    ``{"type": "kraus-list", "kraus": [...]}`` with each operator given as
    row-major ``[re, im]`` pairs.
    """
    kind = spec.get("type")
    if kind == "depolarizing":
        return depolarizing_channel(float(spec["p"]))
    if kind == "kraus-list":
        ops = []
        for mat in spec["kraus"]:
            ops.append(np.array([[complex(re, im) for re, im in row] for row in mat]))
        return ChannelModel.from_kraus(ops)
    raise ValueError(f"unknown channel type {kind!r}")

