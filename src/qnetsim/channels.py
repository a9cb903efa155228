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
``switch_holevo_from_ptms`` for two of them in the switch.  Both are
computed from PTMs alone, and both read their output spectra in closed
form, with no eigensolver, on plain Python floats.  The switch's flagged
output blocks are bilinear in the two PTMs, so all 16 of their
coefficients come from one constant (16, 256) matrix applied to the outer
product of the two.

A ``ChannelModel`` computes its PTM and its rate, ``holevo``, once, on
first use, and keeps them for its lifetime: every cell that uses one
instance, such as the one ``depolarizing_channel`` shares for each ``p``,
shares both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, NamedTuple, Sequence

import numpy as np

from .fields import Fields
from .qstate import (
    PAULIS,
    SCALAR_ATOL,
    STRUCTURAL_ATOL,
    EIGENVALUE_FLOOR,
    QuantumState,
    apply_operators,
    spectrum_entropy,
)

# Pauli vectors of the source states |0><0| and |1><1| as columns; a qubit
# operator sum_n v_n P_n / 2 has Pauli vector v.
_SOURCE = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
# R_ij = 1/2 sum_k tr(P_i K P_j K^dag) is linear in the Kraus Gram matrix
# G = sum_k vec(K) vec(K)^dag, with vec row-major: this [(i, j), (b, c, a, d)]
# matrix applied to G[(b, c), (a, d)] = sum_k K_bc K_ad^*.
_PTM_FROM_GRAM = 0.5 * np.einsum("iab,jcd->ijbcad", PAULIS, PAULIS).reshape(16, 16)


def _switch_blocks() -> np.ndarray:
    """The (16, 256) matrix that maps the outer product of two PTMs to the
    switch's flagged blocks.

    Input ``|s>`` and control outcome ``+-`` leave the block with Pauli
    vector ``1/4 (R2 R1 + R1 R2 +- X) v_s``, where ``X_mn = 1/4 sum Re
    tr(P_m P_a P_f P_n P_b P_e) R2_ab R1_ef`` is the PTM of the cross term
    ``sum_ij (K2_i K1_j rho K2_i^dag K1_j^dag + h.c.)``.  Every term is
    bilinear in ``R2`` and ``R1``, so the 16 coefficients ``[(+-, m, s)]``
    are one matrix applied to ``R2_ab R1_ef`` flattened as ``(a, b, e, f)``.
    """
    eye = np.eye(4)
    serial = np.einsum("am,be,fs->msabef", eye, eye, _SOURCE)
    serial += np.einsum("em,fa,bs->msabef", eye, eye, _SOURCE)
    cross = 0.25 * np.einsum(
        "mij,ajk,fkl,nlo,bop,epi,ns->msabef", *[PAULIS] * 6, _SOURCE, optimize=True
    ).real
    return 0.25 * np.stack((serial + cross, serial - cross)).reshape(16, 256)


_SWITCH_BLOCKS = _switch_blocks()


@dataclass(eq=False, frozen=True)
class ChannelModel:
    """Kraus representation of a completely positive trace-preserving map
    on k >= 1 qubits; its operators share one ``dim x dim`` shape, ``dim = 2^k``,
    and ``stack`` holds them as one read-only ``(m, dim, dim)`` array, of
    which ``kraus_ops`` are the views.

    Frozen, so that one instance can be shared, as ``depolarizing_channel``
    shares it.  Compared and hashed by identity, since ``==`` on its arrays
    is elementwise.
    """

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus_ops]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        dim = shape[0] if shape else 0
        object.__setattr__(self, "dim", dim)
        for k in ops:
            if k.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
                raise ValueError(f"Kraus operators must share one 2^k x 2^k shape, got {k.shape}")
        stack = np.array(ops, dtype=complex)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus_ops", tuple(stack))
        # A NaN entry would pass the completeness test below, since no
        # comparison with NaN is true.
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operators have a non-finite entry")
        # sum_k K^dag K as one batched product, summed over k in order, so
        # that the error is the same float as a sum of per-operator products.
        total = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
        err = float(np.abs(total - np.eye(dim)).max())
        if err > STRUCTURAL_ATOL:
            raise ValueError(f"Kraus completeness violated by {err}")

    @cached_property
    def ptm(self) -> np.ndarray:
        """Read-only Pauli transfer matrix ``R_ij = tr(P_i E(P_j)) / 2`` of
        a qubit channel, computed on first use."""
        if self.dim != 2:
            raise ValueError(
                f"a Pauli transfer matrix needs a qubit channel, got dimension {self.dim}"
            )
        vecs = self.stack.reshape(-1, 4)
        gram = vecs.T @ vecs.conj()
        ptm = (_PTM_FROM_GRAM @ gram.reshape(16)).real.reshape(4, 4).copy()
        ptm.flags.writeable = False
        return ptm

    @cached_property
    def holevo(self) -> float:
        """Holevo rate in bits of a qubit channel fed ``|0>`` or ``|1>``,
        computed from ``ptm`` on first use; a channel it fails on raises
        on every use."""
        return _ptm_holevo(self.ptm)


class BottleneckReport(NamedTuple):
    """Data-processing check for a serial composition."""

    chi_first: float
    chi_second: float
    chi_serial: float
    holds: bool


# A 10x10 sweep of switch cells asks for 200 channels of at most 20 values
# of p, and each build takes about 25 us.  The shared instance computes its
# PTM and its rate once, so every cell with that p shares them too.
@lru_cache(maxsize=256)
def depolarizing_channel(p: float) -> ChannelModel:
    """Qubit depolarizing channel with Kraus weights
    ``{sqrt(1-3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z}``; equal
    ``p`` give the one shared, frozen instance, and with it its ``ptm``
    and ``holevo``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter {p} outside [0, 1]")
    weights = np.sqrt([1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0])
    return ChannelModel(weights[:, None, None] * PAULIS)


def apply_channel(
    channel: ChannelModel, state: QuantumState, targets: Sequence[int]
) -> QuantumState:
    """Apply a channel to the qubits ``targets`` of a register."""
    targets = tuple(targets)
    k = channel.dim.bit_length() - 1
    if len(targets) != k:
        raise ValueError(f"channel acts on {k} qubit(s), got targets {targets}")
    return apply_operators(state, channel.stack, targets)


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
            raise ValueError("switch requires single-qubit channels")
    ops = []
    for ki in second.kraus_ops:
        for kj in first.kraus_ops:
            w = np.zeros((4, 4), dtype=complex)
            w[0::2, 0::2] = ki @ kj
            w[1::2, 1::2] = kj @ ki
            ops.append(w)
    return ChannelModel(tuple(ops))


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
    # Block sum_m c_m P_m / 2 has the eigenvalues (c_0 -+ |c_xyz|) / 2.
    for (a0, b0), (a1, b1), (a2, b2), (a3, b3) in blocks:
        m0, m1, m2, m3 = (a0 + b0) / 2, (a1 + b1) / 2, (a2 + b2) / 2, (a3 + b3) / 2
        norm = math.sqrt(m1 * m1 + m2 * m2 + m3 * m3)
        mean += ((m0 - norm) / 2, (m0 + norm) / 2)
        norm = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        zero += ((a0 - norm) / 2, (a0 + norm) / 2)
        norm = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        one += ((b0 - norm) / 2, (b0 + norm) / 2)
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
    """Holevo rate in bits of a qubit channel fed ``|0>`` or ``|1>``;
    ``channel.holevo``, so one instance is rated once."""
    return channel.holevo


def switch_holevo_from_ptms(first: np.ndarray, second: np.ndarray) -> float:
    """Holevo rate in bits of the switch of the qubit channels with Pauli
    transfer matrices ``first`` and ``second``.

    The control starts in ``|+>`` and is measured in the ``|+>/|->``
    basis after the switch; its outcome is kept as a classical flag
    beside the system's output.  With ``a = K2_i K1_j`` and
    ``b = K1_j K2_i``, input ``|s>`` and outcome ``+-`` leave the system
    in the block ``1/4 sum (a +- b)|s><s|(a +- b)^dag``, whose Pauli vector
    is ``1/4 (R2 R1 + R1 R2 +- X) v_s`` with ``X`` the PTM of the cross
    term.  Neither term depends on which Kraus set stands for a channel,
    and both are bilinear in ``R2`` and ``R1``: the 16 coefficients are
    ``_SWITCH_BLOCKS`` applied to ``R2_ab R1_ef`` flattened.
    """
    blocks = _SWITCH_BLOCKS @ (second.reshape(16, 1) * first.reshape(16)).reshape(256)
    return _pauli_holevo(blocks.reshape(2, 4, 2).tolist())


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


def _kraus_entry(re: Any, im: Any) -> complex:
    # complex() would read a YAML true as 1.
    for part in (re, im):
        if isinstance(part, bool) or not isinstance(part, numbers.Real):
            raise TypeError(f"an entry's [re, im] must be two real numbers, got {[re, im]!r}")
    return complex(re, im)


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
                tuple([[_kraus_entry(re, im) for re, im in row] for row in op] for op in kraus)
            )
        except (TypeError, ValueError) as exc:
            raise fields.error(f"kraus: {exc}") from exc
    else:
        raise fields.error(f"unknown channel type {kind!r}")
    fields.done()
    return channel

