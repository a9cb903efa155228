"""Reference values and oracles shared by the test modules.

Everything here is built by hand from numpy, independent of the package,
so a test can check package results against it.
"""

import functools
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
BENCHMARK_DIR = REPO_ROOT / "benchmark"

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Pauli vectors of the inputs |0><0| and |1><1| as columns.
SOURCE_PAULI_VECTORS = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])

# Holevo rate of the measured-control switch of two fully depolarizing
# channels, from ``switch_activation_oracle``.
SWITCH_ACTIVATION_GOLDEN = 0.048794940695398914


def load_benchmark_module(name):
    """The module ``benchmark/<name>.py``, loaded unchanged from its file."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entropy_bits(matrix):
    """Von Neumann entropy in bits, from eigvalsh."""
    evals = np.linalg.eigvalsh(matrix)
    evals = evals[evals > 1e-12]
    return float(-(evals * np.log2(evals)).sum())


def switch_activation_oracle():
    """chi of the measured-control switch of two fully depolarizing channels,
    computed from the explicit 13-operator Kraus set and direct
    eigendecompositions; no package code on the expected side."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    paulis = (I2, X, Y, Z)
    ops = [0.5 * np.eye(4, dtype=complex)]
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            if i != j:
                ops.append(np.kron(si @ sj / 4.0, p0) + np.kron(sj @ si / 4.0, p1))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    projectors = [np.outer(v, v.conj()) for v in (plus, minus)]

    flagged = []
    for rho_sys in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        joint = np.kron(rho_sys.astype(complex), np.full((2, 2), 0.5))
        out = sum(k @ joint @ k.conj().T for k in ops)
        # measure the control, keep the outcome as a classical flag
        blocks = []
        for proj in projectors:
            meas = np.kron(I2, proj)
            blocks.append(meas @ out @ meas.conj().T)
        conditional = np.zeros((8, 8), dtype=complex)
        for b, block in enumerate(blocks):
            sys_block = block[0::2, 0::2] + block[1::2, 1::2]
            conditional[4 * b : 4 * b + 2, 4 * b : 4 * b + 2] = sys_block
        flagged.append(conditional)
    avg = 0.5 * flagged[0] + 0.5 * flagged[1]
    return entropy_bits(avg) - 0.5 * entropy_bits(flagged[0]) - 0.5 * entropy_bits(flagged[1])


@functools.cache
def _cross_term_map():
    """``C[m, n, a, b, e, f] = 1/4 Re tr(P_m P_a P_f P_n P_b P_e)``: the PTM
    of the switch's cross term is ``X_mn = sum C R2_ab R1_ef``."""
    paulis = (I2, X, Y, Z)
    table = np.zeros((4,) * 6)
    for m, n, a, b, e, f in itertools.product(range(4), repeat=6):
        product = paulis[m] @ paulis[a] @ paulis[f] @ paulis[n] @ paulis[b] @ paulis[e]
        table[m, n, a, b, e, f] = np.trace(product).real / 4
    return table


def switch_blocks_reference(first, second):
    """Flagged switch blocks ``[outcome][m][s]`` of two qubit channels given
    by their PTMs ``first`` (R1) and ``second`` (R2): input ``|s>`` and
    control outcome ``+-`` leave the block with Pauli vector
    ``1/4 (R2 R1 + R1 R2 +- X) v_s``, where ``X`` is the cross term's PTM."""
    serial = (second @ first + first @ second) @ SOURCE_PAULI_VECTORS
    cross = np.einsum("mnabef,ab,ef->mn", _cross_term_map(), second, first) @ SOURCE_PAULI_VECTORS
    return 0.25 * np.stack((serial + cross, serial - cross))


def hand_built_correlations(rho):
    """``T_ij = Re tr(rho P_i (x) P_j)`` of a 4x4 density matrix, by a
    trace per Pauli pair."""
    paulis = (I2, X, Y, Z)
    return np.array([[np.real(np.trace(rho @ np.kron(p, q))) for q in paulis] for p in paulis])


def link_pair_matrix(kraus_ops):
    """The pair a link delivers: phi+ with the channel of ``kraus_ops`` on
    each half, as the Kraus sum ``sum_kl (K_k (x) K_l) phi+ (K_k (x) K_l)^dag``."""
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_((0, 3), (0, 3))] = 0.5
    return sum(
        np.kron(a, b) @ phi @ np.kron(a, b).conj().T for a in kraus_ops for b in kraus_ops
    )


def random_kraus(rng, count):
    """``count`` Kraus operators of a random qubit channel: the 2x2 blocks
    of a random ``(2 count) x 2`` isometry."""
    g = rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2))
    isometry, _ = np.linalg.qr(g)
    return [isometry[2 * k : 2 * k + 2] for k in range(count)]
