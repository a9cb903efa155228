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
set of one channel.  ``channel_from_ptm`` rebuilds a Kraus set from it.

A rate is the Holevo information of the equiprobable ``{|0>, |1>}``
source: ``holevo_information`` for one qubit channel and
``switch_holevo_information`` for two of them in the switch.  Both read
their output spectra in closed form, with no eigensolver.
"""

from __future__ import annotations

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
)

_PAULIS = np.array([I2, PAULI_X, PAULI_Y, PAULI_Z])


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
        kraus = np.array(self.kraus_ops)
        images = np.einsum("kab,jbc,kdc->jad", kraus, _PAULIS, kraus.conj())
        ptm = np.einsum("iba,jab->ij", _PAULIS, images).real / 2
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


def _entropy_bits(spectra: np.ndarray) -> np.ndarray:
    """Entropy in bits of each state whose eigenvalues lie along the last
    axis of ``spectra``.  Eigenvalues below the floor contribute zero;
    anything below the structural negativity budget is rejected."""
    lowest = float(spectra.min())
    if lowest < -STRUCTURAL_ATOL:
        raise ValueError(f"state has eigenvalue {lowest} below -{STRUCTURAL_ATOL}")
    lam = np.clip(spectra, 0.0, 1.0)
    lam = np.where(lam >= EIGENVALUE_FLOOR, lam, 1.0)  # 1 log2(1) = 0
    return -(lam * np.log2(lam)).sum(axis=-1)


def _holevo_from_spectra(spectra: np.ndarray) -> float:
    """Holevo quantity ``S(avg) - avg S`` in bits of two equiprobable
    outputs, from the ascending spectra of their average and of each."""
    dim = spectra.shape[-1]
    avg, first, second = _entropy_bits(spectra)
    chi = float(avg - 0.5 * first - 0.5 * second)
    if chi < -SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} is negative beyond tolerance")
    chi = max(chi, 0.0)
    bound = np.log2(dim)
    if chi > bound + SCALAR_ATOL:
        raise ArithmeticError(f"Holevo information {chi} exceeds log2({dim})")
    return min(chi, bound)


def _ptm_holevo(ptm: np.ndarray) -> float:
    """Holevo rate in bits of the qubit channel with Pauli transfer matrix
    ``ptm``, fed ``|0>`` or ``|1>``.

    The outputs have Bloch vectors ``R[1:, 0] +- R[1:, 3]`` and their
    average ``R[1:, 0]``; a qubit with Bloch vector ``r`` has eigenvalues
    ``(1 -+ |r|) / 2``.
    """
    centre, offset = ptm[1:, 0], ptm[1:, 3]
    norms = np.linalg.norm(np.array([centre, centre + offset, centre - offset]), axis=1)
    longest = float(norms.max())
    if longest > 1.0 + STRUCTURAL_ATOL:
        raise ValueError(f"output Bloch vector of length {longest} lies outside the Bloch ball")
    return _holevo_from_spectra(np.stack(((1.0 - norms) / 2, (1.0 + norms) / 2), axis=-1))


def holevo_information(channel: ChannelModel) -> float:
    """Holevo rate in bits of a qubit channel fed ``|0>`` or ``|1>``."""
    if channel.dim != 2:
        raise UnsupportedDimensionError(
            f"Holevo rate needs a qubit channel, got dimension {channel.dim}"
        )
    return _ptm_holevo(channel.ptm)


def _hermitian_eigenvalues_2x2(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``mean -+ sqrt(half_gap^2 + |off|^2)`` of
    Hermitian 2x2 matrices stacked on the leading axes."""
    top, bottom = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    mean = 0.5 * (top + bottom)
    spread = np.hypot(0.5 * (top - bottom), np.abs(blocks[..., 0, 1]))
    return np.stack((mean - spread, mean + spread), axis=-1)


def switch_holevo_information(first: ChannelModel, second: ChannelModel) -> float:
    """Holevo rate in bits of the switch of two qubit channels.

    The control starts in ``|+>`` and is measured in the ``|+>/|->``
    basis after the switch; its outcome is kept as a classical flag
    beside the system's output.  With ``a = K2_i K1_j`` and
    ``b = K1_j K2_i``, input ``|s>`` and outcome ``+-`` leave the system
    in ``1/4 sum (a +- b)|s><s|(a +- b)^dag``, so the flagged output is
    block diagonal and its spectrum is that of its 2x2 blocks.  The rate
    does not depend on which Kraus set stands for either channel.
    """
    for c in (first, second):
        if c.dim != 2:
            raise UnsupportedDimensionError("switch requires single-qubit channels")
    k1, k2 = np.array(first.kraus_ops), np.array(second.kraus_ops)
    a = np.einsum("iab,jbc->ijac", k2, k1).reshape(-1, 2, 2)
    b = np.einsum("jab,ibc->ijac", k1, k2).reshape(-1, 2, 2)
    # [outcome, Kraus pair, row, input]: column s is the branch of input |s>.
    branches = np.stack((a + b, a - b))
    # [input, outcome, 2, 2]
    blocks = 0.25 * np.einsum("mkas,mkbs->smab", branches, branches.conj())
    states = np.stack((0.5 * (blocks[0] + blocks[1]), blocks[0], blocks[1]))
    spectra = np.sort(_hermitian_eigenvalues_2x2(states).reshape(3, 4), axis=-1)
    return _holevo_from_spectra(spectra)


def bottleneck_check(first: ChannelModel, second: ChannelModel) -> BottleneckReport:
    """Verify the composed channel carries no more information than either
    stage alone: ``chi(second . first) <= min(chi(first), chi(second))``."""
    chi_first = holevo_information(first)
    chi_second = holevo_information(second)
    chi_serial = _ptm_holevo(second.ptm @ first.ptm)
    holds = chi_serial <= min(chi_first, chi_second) + SCALAR_ATOL
    return BottleneckReport(chi_first, chi_second, chi_serial, holds)


def _channel_from_choi(choi: np.ndarray, dim: int) -> ChannelModel:
    """Minimal Kraus set of the channel with Choi matrix
    ``sum vec(K) vec(K)^dag`` (``vec`` row-major): one operator per
    eigenvalue above the floor.

    Raises ``ValueError`` when an eigenvalue is below ``-STRUCTURAL_ATOL``:
    the map is not completely positive.
    """
    evals, evecs = np.linalg.eigh(choi)
    if evals[0] < -STRUCTURAL_ATOL:
        raise ValueError(
            f"Choi matrix has eigenvalue {evals[0]}: the map is not completely positive"
        )
    return ChannelModel(
        tuple(
            np.sqrt(lam) * vec.reshape(dim, dim)
            for lam, vec in zip(evals, evecs.T)
            if lam > EIGENVALUE_FLOOR
        )
    )


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
    return _channel_from_choi(choi, dim)


def channel_from_ptm(ptm: np.ndarray) -> ChannelModel:
    """A qubit channel with at most four Kraus operators, rebuilt from its
    Pauli transfer matrix through its Choi matrix.

    Raises ``ValueError`` when the map is not completely positive.
    """
    # Entry (a, b, c, d) is <a| E(|b><d|) |c>, and |b><d| = sum_j P_j[d, b] P_j / 2.
    return _channel_from_choi(
        0.5 * np.einsum("ij,jdb,iac->abcd", ptm, _PAULIS, _PAULIS).reshape(4, 4), 2
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

