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
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Pauli vectors of the inputs |0><0| and |1><1| as columns.
SOURCE_PAULI_VECTORS = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])

# Holevo rate of the measured-control switch of two fully depolarizing
# channels, from ``switch_activation_oracle``.
SWITCH_ACTIVATION_GOLDEN = 0.048794940695398914

# The benchmark workloads whose configs the tests run, and the seeds they
# run them at: the benchmark's held-out seed, then three free ones.
RUN_WORKLOADS = ("engine_chain", "protocol_trials", "routing_grid")
WORKLOAD_SEEDS = (7919, 1, 2, 3)


def load_benchmark_module(name):
    """The module ``benchmark/<name>.py``, loaded unchanged from its file."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_configs(seeds):
    """``(name, yaml_text)`` of each shipped config, named
    ``configs/<config>``, then of each config that the benchmark's
    ``workloads.generate`` makes for ``RUN_WORKLOADS`` at each of ``seeds``,
    named ``<workload>/<seed>/<config>``."""
    for path in sorted(CONFIG_DIR.glob("*.yaml")):
        yield f"configs/{path.stem}", path.read_text()
    generate = load_benchmark_module("workloads").generate
    for workload in RUN_WORKLOADS:
        for seed in seeds:
            for config, _, text in generate(workload, seed):
                yield f"{workload}/{seed}/{config}", text


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


def link_pair_matrix(kraus_ops, second_ops=None):
    """The pair a link delivers: phi+ with the channel of ``kraus_ops`` on
    its first half and that of ``second_ops`` (by default the same) on its
    second, as the Kraus sum ``sum_kl (K_k (x) L_l) phi+ (K_k (x) L_l)^dag``."""
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_((0, 3), (0, 3))] = 0.5
    second_ops = kraus_ops if second_ops is None else second_ops
    return sum(
        np.kron(a, b) @ phi @ np.kron(a, b).conj().T for a in kraus_ops for b in second_ops
    )


def kraus_from_spec(channel):
    """The operators of a ``kraus-list`` channel spec, read by hand from its
    row-major ``[re, im]`` pairs."""
    return [np.array([[complex(re, im) for re, im in row] for row in op]) for op in channel["kraus"]]


def random_kraus(rng, count, dim=2):
    """``count`` Kraus operators of a random channel on ``dim x dim``
    matrices, as a ``(count, dim, dim)`` stack: the blocks of a random
    ``(count dim) x dim`` isometry from QR, so that ``sum K^dag K = I``."""
    g = rng.normal(size=(count * dim, dim)) + 1j * rng.normal(size=(count * dim, dim))
    isometry, _ = np.linalg.qr(g)
    return isometry.reshape(count, dim, dim)


def ginibre_kraus(rng, count=3):
    """``count`` Kraus operators of a random qubit channel: Ginibre
    matrices ``G_k`` times ``(sum_k G_k^dag G_k)^(-1/2)``, so that they are
    complete."""
    raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(count)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in raw))
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return [k @ inv_sqrt for k in raw]


def dep_holevo(p):
    """Holevo rate ``1 - H2(p / 2)`` of the depolarizing channel of
    probability ``p`` on the computational ensemble."""
    x = p / 2.0
    if x == 0.0:
        return 1.0
    return 1.0 + x * math.log2(x) + (1 - x) * math.log2(1 - x)


def amplitude_damping_kraus(gamma):
    """The two Kraus operators of amplitude damping with decay ``gamma``."""
    return [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


class ForcedDraw:
    """Stub generator whose random() returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


# -- states -------------------------------------------------------------------


def basis_state(bits):
    """``|bits><bits|`` for a string of 0s and 1s, qubit 0 the most
    significant bit of the basis index."""
    state = np.zeros((2 ** len(bits),) * 2, dtype=complex)
    state[int(bits, 2), int(bits, 2)] = 1.0
    return state


def assert_density_matrix(rho, atol=1e-10):
    """Trace 1, hermitian and no eigenvalue below ``-atol``."""
    assert abs(np.trace(rho) - 1.0) <= atol
    assert np.max(np.abs(rho - rho.conj().T)) <= atol
    assert np.linalg.eigvalsh(rho).min() >= -atol


def haar_ket(rng):
    """Haar-random qubit ket from two ``normal(size=2)`` draws, real parts
    first, then imaginary parts."""
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def bell_ket(phase, parity):
    """Bell ket ``(|0 p> + (-1)^z |1 (1-p)>) / sqrt(2)``, ``z`` the phase
    and ``p`` the parity: phi+, psi+, phi-, psi- for (0, 0) to (1, 1)."""
    v = np.zeros(4, dtype=complex)
    v[parity] = 1 / math.sqrt(2)
    v[3 - parity] = (-1 if phase else 1) / math.sqrt(2)
    return v


def bell_matrix(phase, parity):
    """Bell projector ``|B_zp><B_zp|``."""
    v = bell_ket(phase, parity)
    return np.outer(v, v.conj())


def pauli_frame(bits):
    """``Z^z X^x`` for the Bell outcome ``bits = (z, x)``: the frame it
    leaves on the destination, and the frame a superdense message writes."""
    return (Z if bits[0] else I2) @ (X if bits[1] else I2)


# -- the Bell measurement as a circuit ----------------------------------------


@functools.cache
def _cnot_then_h(a, b, n):
    """The matrix of CNOT(a, b), then H(a), on ``n`` qubits.  It maps the
    Bell ket of outcome (z, x) on qubits (a, b) to ``|z x>``."""
    dim = 2**n
    cnot = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        cnot[i ^ (((i >> (n - 1 - a)) & 1) << (n - 1 - b)), i] = 1
    h_a = np.kron(np.kron(np.eye(2**a), H), np.eye(2 ** (n - 1 - a)))
    return h_a @ cnot


def hand_built_bell_weights(rho, a, b, n):
    """Weights of the Bell outcomes (z, x) on qubits (a, b) of an ``n``-qubit
    ``rho``, in the order (0, 0), (0, 1), (1, 0), (1, 1): CNOT(a, b), then
    H(a), then reading z off a and x off b."""
    u = _cnot_then_h(a, b, n)
    diagonal = np.real(np.diag(u @ rho @ u.conj().T))
    weights = np.zeros(4)
    for i in range(2**n):
        weights[2 * ((i >> (n - 1 - a)) & 1) + ((i >> (n - 1 - b)) & 1)] += diagonal[i]
    return weights


def bell_measure(rho, a, b, n, rng):
    """Bell-measure qubits (a, b) of an ``n``-qubit ``rho`` with one
    ``rng.random()``: the outcome is the first whose cumulative weight,
    clipped at 0 and normalised, lies above the draw (the last one for a
    draw of 1 or more).  Returns the outcome (z, x) and the normalised
    state of the other qubits, in ascending order."""
    weights = hand_built_bell_weights(rho, a, b, n)
    cumulative = np.cumsum(np.clip(weights, 0.0, None))
    index = min(int(np.searchsorted(cumulative / cumulative[-1], rng.random(), side="right")), 3)
    if weights[index] < 1e-12:
        raise ValueError(f"Bell outcome {index} has weight {weights[index]}")
    bits = divmod(index, 2)
    return bits, bell_branch(rho, a, b, n, bits) / weights[index]


def bell_branch(rho, a, b, n, bits):
    """The unnormalised state of the other qubits of an ``n``-qubit ``rho``,
    in ascending order, after the Bell outcome ``bits = (z, x)`` on qubits
    (a, b): CNOT(a, b), then H(a), then projecting a on z and b on x.  Its
    trace is the outcome's weight."""
    u = _cnot_then_h(a, b, n)
    after = (u @ rho @ u.conj().T).reshape((2,) * (2 * n))
    pick = [slice(None)] * (2 * n)
    pick[a] = pick[n + a] = bits[0]
    pick[b] = pick[n + b] = bits[1]
    return after[tuple(pick)].reshape(2 ** (n - 2), 2 ** (n - 2))


def teleport_circuit(payload, pair, rng):
    """Teleport a one-qubit ``payload`` over a two-qubit ``pair``: the
    sender Bell-measures the payload with the pair's first qubit.  Returns
    the outcome and the destination's qubit before correction."""
    return bell_measure(np.kron(payload, pair), 0, 1, 3, rng)


def swap_circuit(left, right, rng):
    """Swap the pairs ``left`` on (a, m) and ``right`` on (m, c): the middle
    node Bell-measures its two halves.  Returns the outcome and the (a, c)
    pair before correction."""
    return bell_measure(np.kron(left, right), 1, 2, 4, rng)


def swap_circuit_oracle(kraus):
    """Born weight and corrected phi+ fidelity of each swap outcome, keyed
    ``"zx"``, over two links whose pairs ``link_pair_matrix(kraus)`` gives:
    ``swap_circuit``'s Bell measurement, then ``corrected``.  An outcome of
    weight 0 gets fidelity 0, so it adds nothing to a weighted sum."""
    pair = link_pair_matrix(kraus)
    joint = np.kron(pair, pair)
    oracle = {}
    for bits in itertools.product((0, 1), repeat=2):
        branch = bell_branch(joint, 1, 2, 4, bits)
        weight = float(np.real(np.trace(branch)))
        fid = overlap(corrected(branch / weight, bits), bell_matrix(0, 0)) if weight > 0 else 0.0
        oracle[f"{bits[0]}{bits[1]}"] = (weight, fid)
    return oracle


def swap_circuit_problems(metrics, kraus, n_swaps):
    """Each of a swap cell's ``metrics`` (name to value) that lies more
    than 5 sigma from ``swap_circuit_oracle(kraus)`` over ``n_swaps``
    swaps: every ``outcome_frac_zx`` and ``fidelity_mean``."""
    oracle = swap_circuit_oracle(kraus)
    problems = []
    for bits, (weight, _) in oracle.items():
        frac = float(metrics[f"outcome_frac_{bits}"])
        if abs(frac - weight) > 5 * math.sqrt(weight * (1 - weight) / n_swaps):
            problems.append(f"outcome_frac_{bits} {frac} is not within 5 sigma of {weight}")
    mean = sum(w * f for w, f in oracle.values())
    variance = sum(w * f * f for w, f in oracle.values()) - mean**2
    fidelity = float(metrics["fidelity_mean"])
    if abs(fidelity - mean) > 5 * math.sqrt(max(variance, 0.0) / n_swaps) + 1e-12:
        problems.append(f"fidelity_mean {fidelity} is not within 5 sigma of {mean}")
    if int(metrics["swaps"]) != n_swaps:
        problems.append(f"swaps {metrics['swaps']} != {n_swaps}")
    return problems


def corrected(state, bits):
    """``state`` with the frame ``Z^z X^x`` of ``bits`` on its last qubit,
    which undoes the frame the Bell outcome ``bits`` leaves there."""
    frame = np.kron(np.eye(len(state) // 2), pauli_frame(bits))
    return frame @ state @ frame.conj().T


def overlap(state, pure):
    """``tr(state pure)``, the fidelity of ``state`` with a pure state."""
    return float(np.real(np.trace(state @ pure)))


# -- routing ------------------------------------------------------------------


def random_link_params(rng):
    """``{(a, b): depolarizing p}`` of a small random graph on nodes
    ``n0``, ``n1``, ...: a spanning tree plus a few chords.  Link noise
    mixes moderate depolarizing with fully depolarizing blockers."""
    n = int(rng.integers(3, 9))
    nodes = [f"n{i}" for i in range(n)]
    links = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        links[(nodes[j], nodes[i])] = draw_noise(rng)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = sorted((nodes[int(i)], nodes[int(j)]))
        if (a, b) not in links:
            links[(a, b)] = draw_noise(rng)
    return links


def draw_noise(rng):
    """Fully depolarizing with probability 0.35, else ``p`` in [0, 0.9]."""
    if rng.random() < 0.35:
        return 1.0
    return float(np.round(rng.uniform(0.0, 0.9), 3))


def enumerate_paths(link_params, src, dst):
    """Every simple path from ``src`` to ``dst`` over ``link_params``'
    pairs, sorted: a DFS independent of the planner."""
    neighbors = {}
    for a, b in link_params:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    for adj in neighbors.values():
        adj.sort()
    paths = []
    stack = [(src,)]
    while stack:
        path = stack.pop()
        if path[-1] == dst:
            paths.append(path)
            continue
        for other in neighbors.get(path[-1], ()):
            if other not in path:
                stack.append(path + (other,))
    return sorted(paths)


def rate_of(link_params, path):
    """The bottleneck Holevo rate of ``path``'s depolarizing links."""
    rates = []
    for a, b in zip(path, path[1:]):
        p = link_params.get((a, b), link_params.get((b, a)))
        rates.append(dep_holevo(p))
    return min(rates)


def oracle_best(link_params, src, dst):
    """Exhaustive enumeration: (max bottleneck rate, lexicographically
    smallest path among the winners)."""
    paths = enumerate_paths(link_params, src, dst)
    usable = [p for p in paths if rate_of(link_params, p) > 1e-9]
    if not usable:
        return 0.0, ()
    best_rate = max(rate_of(link_params, p) for p in usable)
    winners = [p for p in usable if rate_of(link_params, p) >= best_rate - 1e-12]
    return best_rate, min(winners)
