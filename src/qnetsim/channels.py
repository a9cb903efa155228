"""CPTP channel models: Kraus sets, serial composition, a causal-order
switch, and Holevo rates.

A channel on k qubits is a tuple of square ``2^k x 2^k`` Kraus operators
satisfying completeness ``sum(K^dag K) = I`` within 1e-10.  The switch
places two qubit channels in a superposition of application orders
selected by a control qubit; measuring that control in the ``|+>/|->``
basis and keeping the classical outcome is what distinguishes it from a
definite-order composition.

A qubit channel also has its Pauli transfer matrix (PTM), the real 4x4
``R_ij = tr(P_i E(P_j)) / 2`` over ``P = (I, X, Y, Z)``: serial
composition is ``R2 @ R1``, and the matrix is the same for every Kraus
set of one channel.  It is one constant matrix applied to the Kraus Gram
matrix ``sum_k vec(K) vec(K)^*``.

A rate is the Holevo information of the equiprobable ``{|0>, |1>}``
source: ``holevo_information`` for one qubit channel and
``switch_holevo_information`` for two of them in the switch.  Both are
computed from PTMs alone (``switch_holevo_from_ptms`` for the switch),
and both read their output spectra in closed form, with no eigensolver,
on plain Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    spectrum_entropy,
)

_PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])
# Pauli vectors of the source states |0><0| and |1><1| as columns; a qubit
# operator sum_n v_n P_n / 2 has Pauli vector v.
_SOURCE = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
# R_ij = 1/2 sum_k tr(P_i K P_j K^dag) is linear in the Kraus Gram matrix
# G = sum_k vec(K) vec(K)^dag, with vec row-major: this [(i, j), (b, c, a, d)]
# matrix applied to G[(b, c), (a, d)] = sum_k K_bc K_ad^*.
_PTM_FROM_GRAM = 0.5 * np.einsum("iab,jcd->ijbcad", _PAULIS, _PAULIS).reshape(16, 16)
# The switch's cross term sum_ij (K2_i K1_j rho K2_i^dag K1_j^dag + h.c.) has
# the PTM X_mn = 1/4 sum Re tr(P_m P_a P_f P_n P_b P_e) R2_ab R1_ef.  Taken on
# the two source vectors, it is this [(m, s), (a, b, e, f)] matrix applied to
# the outer product of R2 and R1.
_SWITCH_CROSS = (
    0.25
    * np.einsum(
        "mij,ajk,fkl,nlo,bop,epi,ns->msabef",
        *[_PAULIS] * 6,
        _SOURCE,
        optimize=True,
    ).real.reshape(8, 256)
)


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

    @cached_property
    def ptm(self) -> np.ndarray:
        """Read-only Pauli transfer matrix ``R_ij = tr(P_i E(P_j)) / 2`` of
        a qubit channel, computed on first use."""
        if self.dim != 2:
            raise UnsupportedDimensionError(
                f"a Pauli transfer matrix needs a qubit channel, got dimension {self.dim}"
            )
        vecs = np.array(self.kraus_ops).reshape(-1, 4)
        gram = vecs.T @ vecs.conj()
        ptm = (_PTM_FROM_GRAM @ gram.reshape(16)).real.reshape(4, 4).copy()
        ptm.flags.writeable = False
        return ptm

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


def _block_spectrum(c0: float, c1: float, c2: float, c3: float) -> tuple[float, float]:
    """Eigenvalues ``(c_0 -+ |c_xyz|) / 2`` of the 2x2 block ``sum_m c_m P_m / 2``."""
    norm = math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    return (c0 - norm) / 2, (c0 + norm) / 2


def _pauli_holevo(blocks: Sequence[Sequence[Sequence[float]]]) -> float:
    """Holevo quantity ``S(avg) - avg S`` in bits of the outputs of the
    equiprobable inputs ``|0>`` and ``|1>``.

    Each output is block diagonal in 2x2 blocks ``sum_m c_m P_m / 2``, and
    ``blocks[b][m][s]`` is ``c_m`` of block ``b`` of input ``s``, given as
    plain floats.
    """
    mean: list[float] = []
    zero: list[float] = []
    one: list[float] = []
    for (a0, b0), (a1, b1), (a2, b2), (a3, b3) in blocks:
        mean += _block_spectrum((a0 + b0) / 2, (a1 + b1) / 2, (a2 + b2) / 2, (a3 + b3) / 2)
        zero += _block_spectrum(a0, a1, a2, a3)
        one += _block_spectrum(b0, b1, b2, b3)
    dim = len(mean)
    chi = spectrum_entropy(mean) - 0.5 * spectrum_entropy(zero) - 0.5 * spectrum_entropy(one)
    if chi < -SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} is negative beyond tolerance")
    chi = max(chi, 0.0)
    bound = math.log2(dim)
    if chi > bound + SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} exceeds log2({dim})")
    return min(chi, bound)


def _ptm_holevo(ptm: np.ndarray) -> float:
    """Holevo rate in bits of the qubit channel with Pauli transfer matrix
    ``ptm``, fed ``|0>`` or ``|1>``: the outputs have Pauli vectors
    ``ptm @ v_s``, with Bloch vectors ``R[1:, 0] +- R[1:, 3]``."""
    outputs = [[r0 + r3, r0 - r3] for r0, _, _, r3 in ptm.tolist()]
    _, (x0, x1), (y0, y1), (z0, z1) = outputs
    longest = math.sqrt(max(x0 * x0 + y0 * y0 + z0 * z0, x1 * x1 + y1 * y1 + z1 * z1))
    if longest > 1.0 + STRUCTURAL_ATOL:
        raise ValueError(f"output Bloch vector of length {longest} lies outside the Bloch ball")
    return _pauli_holevo((outputs,))


def holevo_information(channel: ChannelModel) -> float:
    """Holevo rate in bits of a qubit channel fed ``|0>`` or ``|1>``."""
    if channel.dim != 2:
        raise UnsupportedDimensionError(
            f"Holevo rate needs a qubit channel, got dimension {channel.dim}"
        )
    return _ptm_holevo(channel.ptm)


def switch_holevo_from_ptms(first: np.ndarray, second: np.ndarray) -> float:
    """Holevo rate in bits of the switch of the qubit channels with Pauli
    transfer matrices ``first`` and ``second``.

    The control starts in ``|+>`` and is measured in the ``|+>/|->``
    basis after the switch; its outcome is kept as a classical flag
    beside the system's output.  With ``a = K2_i K1_j`` and
    ``b = K1_j K2_i``, input ``|s>`` and outcome ``+-`` leave the system
    in the block ``1/4 sum (a +- b)|s><s|(a +- b)^dag``, whose Pauli vector
    is ``1/4 (R2 R1 + R1 R2 +- X) v_s`` with ``X`` the PTM of the cross
    term.  Neither term depends on which Kraus set stands for a channel.
    """
    serial = (second @ first + first @ second) @ _SOURCE
    cross = (_SWITCH_CROSS @ np.multiply.outer(second, first).reshape(-1)).reshape(4, 2)
    return _pauli_holevo((0.25 * np.stack((serial + cross, serial - cross))).tolist())


def switch_holevo_information(first: ChannelModel, second: ChannelModel) -> float:
    """Holevo rate in bits of the switch of two qubit channels; see
    ``switch_holevo_from_ptms``."""
    for c in (first, second):
        if c.dim != 2:
            raise UnsupportedDimensionError("switch requires single-qubit channels")
    return switch_holevo_from_ptms(first.ptm, second.ptm)


def bottleneck_check(first: ChannelModel, second: ChannelModel) -> BottleneckReport:
    """Verify the composed channel carries no more information than either
    stage alone: ``chi(second . first) <= min(chi(first), chi(second))``."""
    chi_first = holevo_information(first)
    chi_second = holevo_information(second)
    chi_serial = _ptm_holevo(second.ptm @ first.ptm)
    holds = chi_serial <= min(chi_first, chi_second) + SCALAR_ATOL
    return BottleneckReport(chi_first, chi_second, chi_serial, holds)


def reduce_kraus(channel: ChannelModel) -> ChannelModel:
    """Minimal Kraus set via eigendecomposition of the Choi matrix.

    Serial composition multiplies Kraus counts; this keeps a composed
    channel at no more than ``dim**2`` operators.
    """
    dim = channel.dim
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in channel.kraus_ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    evals, evecs = np.linalg.eigh(choi)
    return ChannelModel(
        tuple(
            np.sqrt(lam) * vec.reshape(dim, dim)
            for lam, vec in zip(evals, evecs.T)
            if lam > EIGENVALUE_FLOOR
        )
    )


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

