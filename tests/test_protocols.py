"""Bell/W preparation, teleportation, superdense coding, swapping, election."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qnetsim.channels import ChannelModel, depolarizing_channel
from qnetsim.engine import ClassicalLink, EventKind, QuantumLink, Topology
from qnetsim.protocols import (
    SUPERDENSE_MESSAGES,
    CorrectionMessage,
    Purpose,
    _bell_branches,
    _draw_index,
    bell_basis_measure,
    bell_pair_correlations,
    cumulative_weights,
    draw_bell_outcome,
    make_w_state,
    pauli_correct,
    superdense_decode,
    superdense_distribution,
    superdense_encode,
    swap_outcome_table,
    teleport_fidelity,
    teleport_table,
    teleport_weights,
    w_election_probabilities,
    w_election_round,
    werner_correlations,
    werner_pair,
)
from qnetsim.qstate import (
    EIGENVALUE_FLOOR,
    QuantumState,
    fidelity,
    measure,
    purity,
    random_pure_state,
)
from qnetsim.scenarios import SCENARIOS
from reference import (
    H,
    I2,
    X,
    Y,
    Z,
    ForcedDraw,
    amplitude_damping_kraus,
    bell_ket,
    bell_matrix,
    corrected,
    hand_built_bell_weights,
    hand_built_correlations,
    link_pair_matrix,
    overlap,
    pauli_frame,
    random_kraus,
    swap_circuit,
    teleport_circuit,
)


def werner_matrix(w):
    return w * bell_matrix(0, 0) + (1 - w) * np.eye(4) / 4


def werner_oracle(w):
    return hand_built_correlations(werner_matrix(w))


def bloch(rho):
    """``(<X>, <Y>, <Z>)`` of a qubit state, as plain floats."""
    return tuple(float(np.real(np.trace(p @ rho))) for p in (X, Y, Z))


def forced_outcome(index):
    """A draw that selects outcome ``index`` of four equal weights."""
    return ForcedDraw((index + 0.5) / 4)


# -- resource preparation -----------------------------------------------------


def test_bell_pair_is_exact_phi_plus():
    pair = werner_pair(1.0)
    assert np.allclose(pair.matrix, bell_matrix(0, 0), atol=1e-15)
    assert fidelity(pair, QuantumState(2, bell_matrix(0, 0))) == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_marginals_are_maximally_mixed():
    tensor = werner_pair(1.0).matrix.reshape(2, 2, 2, 2)
    marg0 = np.einsum("abcb->ac", tensor)
    marg1 = np.einsum("abad->bd", tensor)
    assert np.allclose(marg0, I2 / 2, atol=1e-12)
    assert np.allclose(marg1, I2 / 2, atol=1e-12)


def test_bell_measurement_statistics():
    rng = np.random.default_rng(13)
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    n = 100_000
    pair = werner_pair(1.0)
    for _ in range(n):
        out0, post = measure(pair, 0, rng)
        out1, _ = measure(post, 1, rng)
        counts[f"{out0.bit}{out1.bit}"] += 1
    assert counts["01"] == 0 and counts["10"] == 0
    assert abs(counts["00"] / n - 0.5) < 0.01
    assert abs(counts["11"] / n - 0.5) < 0.01


def test_werner_pair_matrix_and_fidelity():
    for w in (0.0, 0.37, 1.0):
        pair = werner_pair(w)
        assert np.allclose(pair.matrix, werner_matrix(w), atol=1e-12)
        assert fidelity(pair, QuantumState(2, bell_matrix(0, 0))) == pytest.approx(
            (1 + 3 * w) / 4, abs=1e-12
        )


def test_w_state_two_nodes():
    v = np.array([0, 1, 1, 0]) / math.sqrt(2)
    assert np.allclose(make_w_state(2).matrix, np.outer(v, v), atol=1e-15)


def test_w_state_three_nodes_amplitudes():
    state = make_w_state(3)
    one_hot = (1, 2, 4)  # |001>, |010>, |100>
    diag = np.real(np.diag(state.matrix))
    for idx in range(8):
        expected = 1 / 3 if idx in one_hot else 0.0
        assert diag[idx] == pytest.approx(expected, abs=1e-12)
    assert purity(state) == pytest.approx(1.0, abs=1e-12)


def test_w_state_purity_across_range():
    for n in range(2, 11):
        assert purity(make_w_state(n)) == pytest.approx(1.0, abs=1e-9)


def test_w_state_node_count_bounds():
    with pytest.raises(ValueError, match=r"W state size 1 outside \[2, 10\]"):
        make_w_state(1)
    with pytest.raises(ValueError, match=r"W state size 11 outside \[2, 10\]"):
        make_w_state(11)


# -- Bell measurement ---------------------------------------------------------


class _CountingDraw:
    """Generator wrapper that counts its random() calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.rng.random()


def test_bell_measure_on_a_pair_inside_a_register_names_the_bell_state():
    # Qubits (3, 1) hold a Bell state, qubit 3 first; qubits 0 and 2 hold
    # the product u (x) v, which the measurement must hand back untouched.
    u = np.array([math.cos(0.3), np.exp(0.7j) * math.sin(0.3)])
    v = np.array([math.cos(1.1), np.exp(-2.0j) * math.sin(1.1)])
    rest = np.outer(np.kron(u, v), np.kron(u, v).conj())
    for phase in (0, 1):
        for parity in (0, 1):
            pair = bell_ket(phase, parity).reshape(2, 2)  # [qubit 3, qubit 1]
            ket = np.einsum("i,k,ab->ibka", u, v, pair).reshape(16)
            state = QuantumState(4, np.outer(ket, ket.conj()))
            for draw in (0.0, 0.5, 1.0 - 1e-9):
                bits, post = bell_basis_measure(state, 3, 1, ForcedDraw(draw))
                assert bits == (phase, parity)
                assert post.num_qubits == 2
                assert np.allclose(post.matrix, rest, rtol=0.0, atol=1e-12)


def test_bell_branch_weights_match_cnot_h_circuit_on_mixed_states():
    rng = np.random.default_rng(61)
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    for trial in range(20):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        a, b = pairs[trial % len(pairs)]
        branches = _bell_branches(QuantumState(3, rho), a, b)
        weights = np.real(np.trace(branches, axis1=1, axis2=2))
        expected = hand_built_bell_weights(rho, a, b, 3)
        assert np.allclose(weights, expected, rtol=0.0, atol=1e-12), (a, b)


def test_bell_measure_draws_once():
    counting = _CountingDraw(62)
    state = random_pure_state(np.random.default_rng(63), 3)
    bell_basis_measure(state, 0, 2, counting)
    assert counting.calls == 1


def test_bell_measure_guards_a_branch_below_the_floor():
    # phi+ (x) |0>: only outcome (0, 0) has weight; a draw >= 1 selects the
    # last outcome, (1, 1), whose weight is 0
    state = QuantumState(3, np.kron(bell_matrix(0, 0), np.diag([1.0, 0.0])))
    with pytest.raises(ArithmeticError, match=r"Bell outcome \(1, 1\) has weight 0"):
        bell_basis_measure(state, 0, 1, ForcedDraw(1.5))
    for a, b in ((1, 1), (0, 3), (-1, 0)):
        with pytest.raises(IndexError):
            bell_basis_measure(state, a, b, ForcedDraw(0.5))


def test_draw_index_matches_numpy_search_on_random_tables():
    # The numpy form of the draw (clip, cumulative sum, normalise, first
    # entry above the draw) on over 10^4 tables of 2 to 10 weights mixing
    # ordinary, zero, tied, sub-floor and slightly negative entries; draws
    # at random, at every table entry (where "first entry above" matters),
    # at 0 and beyond 1.
    rng = np.random.default_rng(71)
    specials = np.array([0.0, 1e-13, -1e-17, 0.25])
    tables = 0
    for size in range(2, 11):
        count = 1200
        weights = rng.random((count, size))
        kinds = rng.integers(0, 4, (count, size))
        special = kinds == 1
        weights[special] = specials[rng.integers(0, len(specials), special.sum())]
        tied = kinds == 2
        rows = np.nonzero(tied)[0]
        weights[tied] = weights[rows, rng.integers(0, size, len(rows))]
        weights = weights[np.clip(weights, 0.0, None).sum(axis=1) > 0.0]
        expected = np.cumsum(np.clip(weights, 0.0, None), axis=1)
        expected /= expected[:, -1:]
        randoms = rng.random(len(weights))
        for row, table, draw in zip(weights, expected, randoms):
            cumulative = cumulative_weights(row)
            assert cumulative == tuple(table.tolist())
            draws = [draw, 0.0, 1.5, *cumulative]
            indices = np.minimum(np.searchsorted(table, draws, side="right"), size - 1)
            assert [_draw_index(cumulative, ForcedDraw(d)) for d in draws] == indices.tolist()
            tables += 1
    assert tables >= 10_000
    assert all(type(value) is float for value in cumulative_weights(np.array([0.5, 0.25])))


# -- correlation matrix -------------------------------------------------------

PHI_PLUS_DIAGONAL = np.diag([1.0, 1.0, -1.0, 1.0])


def test_pair_correlations_are_the_pauli_expectations():
    # phi+ with a different random channel on each half has correlations
    # R1 D R2^T; the oracle builds that pair by its Kraus sum.
    rng = np.random.default_rng(67)
    for _ in range(20):
        first, second = (random_kraus(rng, int(rng.integers(1, 5))) for _ in range(2))
        correlations = bell_pair_correlations(ChannelModel(first).ptm, ChannelModel(second).ptm)
        expected = hand_built_correlations(link_pair_matrix(first, second))
        assert np.allclose(correlations, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("w", [0.0, 0.34, 0.8, 1.0])
def test_pair_correlations_of_werner_pairs_are_diagonal(w):
    # phi+ = (II + XX - YY + ZZ) / 4, and white noise scales every
    # correlation but the trace; werner_correlations is exactly that.
    expected = np.diag([1.0, w, -w, w])
    assert np.array_equal(werner_correlations(w), expected)
    oracle = hand_built_correlations(werner_pair(w).matrix)
    assert np.allclose(oracle, expected, rtol=0.0, atol=1e-15)
    assert np.array_equal(bell_pair_correlations(np.eye(4), np.eye(4)), PHI_PLUS_DIAGONAL)


_RANDOM_CHANNELS = [
    ChannelModel(random_kraus(np.random.default_rng(seed), count))
    for seed, count in ((71, 1), (72, 2), (73, 3), (74, 4))
]


@pytest.mark.parametrize(
    "channel",
    [
        depolarizing_channel(0.05),
        depolarizing_channel(0.6),
        ChannelModel(amplitude_damping_kraus(0.3)),
        *_RANDOM_CHANNELS,
    ],
    ids=[
        "depolarizing-0.05",
        "depolarizing-0.6",
        "amplitude-damping-0.3",
        *(f"random-cptp-{len(c.kraus_ops)}-kraus" for c in _RANDOM_CHANNELS),
    ],
)
def test_link_pair_correlations_are_its_ptm_on_both_halves(channel):
    # The link's channel acts on each half of phi+, so the pair's
    # correlations are R D R^T for the channel's Pauli transfer matrix R;
    # the oracle builds that pair by its Kraus sum.
    link = QuantumLink("a", "b", channel, 1.0, 1)
    expected = hand_built_correlations(link_pair_matrix(channel.kraus_ops))
    pair = bell_pair_correlations(link.channel.ptm, link.channel.ptm)
    assert np.allclose(pair, expected, rtol=0.0, atol=1e-14)


# -- teleportation ------------------------------------------------------------


def test_teleport_ideal_resource_is_exact():
    # Over phi+ each outcome has weight 1/4 and gives the payload back.
    rng = np.random.default_rng(21)
    table = teleport_table(werner_oracle(1.0)).tolist()
    for _ in range(50):
        r = bloch(random_pure_state(rng).matrix)
        assert teleport_weights(table, r) == pytest.approx((0.25,) * 4, abs=1e-15)
        for branch in table:
            assert teleport_fidelity(branch, r) == pytest.approx(1.0, abs=1e-12)


def test_teleport_emits_exactly_one_two_bit_message():
    # A teleport draws its outcome with one draw; the correction is that
    # outcome's two bits, SUPERDENSE_MESSAGES[index].
    rng = np.random.default_rng(22)
    table = teleport_table(werner_oracle(1.0)).tolist()
    weights = teleport_weights(table, bloch(random_pure_state(rng).matrix))
    counting = _CountingDraw(22)
    index = draw_bell_outcome(weights, cumulative_weights(weights), counting)
    assert counting.calls == 1
    assert index in range(4) and len(SUPERDENSE_MESSAGES[index]) == 2


def test_teleport_uncorrected_state_is_pauli_frame_of_payload():
    # Before the correction arrives the destination holds the payload under
    # the Pauli named by the outcome; averaged over the four equally likely
    # outcomes that is I/2, so the destination cannot guess the payload.
    # The table's output is that state with the frame undone.
    payload = random_pure_state(np.random.default_rng(23)).matrix
    r = bloch(payload)
    table = teleport_table(werner_oracle(1.0))
    pending = []
    for index, bits in enumerate(SUPERDENSE_MESSAGES):
        drawn, destination = teleport_circuit(payload, bell_matrix(0, 0), forced_outcome(index))
        assert drawn == bits
        p = pauli_frame(bits)
        assert np.allclose(destination, p @ payload @ p.conj().T, atol=1e-10)
        assert np.allclose(corrected(destination, bits), payload, atol=1e-10)
        output = table[index] @ np.array([1.0, *r])
        assert np.allclose(output / output[0], [1.0, *r], rtol=0.0, atol=1e-12)
        pending.append(destination)
    assert np.allclose(sum(pending) / 4, I2 / 2, atol=1e-10)


def test_teleport_with_product_resource_degrades_to_mixed():
    rng = np.random.default_rng(25)
    payload = random_pure_state(rng).matrix
    r = bloch(payload)
    product = np.eye(4, dtype=complex) / 4
    table = teleport_table(hand_built_correlations(product)).tolist()
    assert teleport_weights(table, r) == pytest.approx((0.25,) * 4, abs=1e-15)
    for index, bits in enumerate(SUPERDENSE_MESSAGES):
        _, destination = teleport_circuit(payload, product, forced_outcome(index))
        assert np.allclose(corrected(destination, bits), I2 / 2, atol=1e-10)
        assert teleport_fidelity(table[index], r) == pytest.approx(0.5, abs=1e-12)


def _teleport_fidelity_oracle(payload_matrix, w):
    """Deterministic 3-qubit evolution summed over all four outcomes."""
    joint = np.kron(payload_matrix, werner_matrix(w))
    cnot01 = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    u = np.kron(H, np.eye(4)) @ np.kron(cnot01, I2)
    after = (u @ joint @ u.conj().T).reshape(2, 2, 2, 2, 2, 2)
    total = 0.0
    for z in (0, 1):
        for x in (0, 1):
            block = after[z, x, :, z, x, :]
            correction = (Z if z else I2) @ (X if x else I2)
            corrected_block = correction @ block @ correction.conj().T
            total += float(np.real(np.trace(corrected_block @ payload_matrix)))
    return total


def test_teleport_werner_fidelity_matches_oracle():
    w = 0.8
    rng_oracle = np.random.default_rng(101)
    oracle = np.mean(
        [_teleport_fidelity_oracle(random_pure_state(rng_oracle).matrix, w) for _ in range(200)]
    )
    rng = np.random.default_rng(202)
    table = teleport_table(werner_oracle(w)).tolist()
    observed = []
    for _ in range(200):
        r = bloch(random_pure_state(rng).matrix)
        weights = teleport_weights(table, r)
        observed.append(sum(wt * teleport_fidelity(b, r) for wt, b in zip(weights, table)))
    assert abs(np.mean(observed) - oracle) < 0.01
    # the Werner output fidelity is payload independent: (1 + w) / 2
    assert oracle == pytest.approx((1 + w) / 2, abs=1e-9)


def amplitude_damped_pair(gamma, halves=(0, 1)):
    """Hand-built phi+ with amplitude damping on the given halves: not
    Bell-diagonal.  Damping one half only also makes the two halves'
    marginals differ, so each outcome's transfer matrix is not symmetric."""
    damping = amplitude_damping_kraus(gamma)
    first, second = (damping if half in halves else [I2] for half in (0, 1))
    phi = bell_matrix(0, 0)
    return sum(np.kron(a, b) @ phi @ np.kron(a, b).conj().T for a in first for b in second)


def _check_teleport_table_against_per_trial_path(pair_matrix, n_payloads, seed):
    """For each payload and each outcome: the table's weight against the
    hand-built CNOT-H circuit, and its fidelity against that circuit forced
    onto the outcome, then corrected by the outcome's frame."""
    table = teleport_table(hand_built_correlations(pair_matrix)).tolist()
    rng = np.random.default_rng(seed)
    for _ in range(n_payloads):
        payload = random_pure_state(rng).matrix
        r = bloch(payload)
        weights = teleport_weights(table, r)
        expected = hand_built_bell_weights(np.kron(payload, pair_matrix), 0, 1, 3)
        assert np.max(np.abs(np.subtract(weights, expected))) <= 1e-12
        upper = np.cumsum(expected) / expected.sum()
        lower = np.concatenate(([0.0], upper[:-1]))
        for index, bits in enumerate(SUPERDENSE_MESSAGES):
            if expected[index] < 1e-9:
                continue
            draw = ForcedDraw((lower[index] + upper[index]) / 2)
            drawn, destination = teleport_circuit(payload, pair_matrix, draw)
            assert drawn == bits
            oracle = overlap(corrected(destination, bits), payload)
            assert abs(teleport_fidelity(table[index], r) - oracle) <= 1e-12


@pytest.mark.parametrize(
    "pair_matrix",
    [werner_matrix(0.8), amplitude_damped_pair(0.3), amplitude_damped_pair(0.3, halves=(1,))],
    ids=["werner-0.8", "amplitude-damped-0.3", "one-half-damped-0.3"],
)
def test_teleport_table_matches_per_trial_teleport(pair_matrix):
    _check_teleport_table_against_per_trial_path(pair_matrix, 200, 81)


@settings(max_examples=5, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=32, max_size=32),
    seed=st.integers(0, 2**32 - 1),
)
def test_teleport_table_matches_per_trial_teleport_on_mixed_resources(entries, seed):
    g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
    rho = g @ g.conj().T
    assume(np.real(np.trace(rho)) > 1e-3)
    _check_teleport_table_against_per_trial_path(rho / np.trace(rho), 200, seed)


def test_teleport_table_of_phi_plus_is_identity_per_outcome():
    # An ideal pair teleports any payload exactly: each outcome, weight 1/4,
    # passes the Pauli vector through unchanged.
    table = teleport_table(werner_oracle(1.0))
    assert np.allclose(table, np.broadcast_to(np.eye(4) / 4, (4, 4, 4)), rtol=0.0, atol=1e-15)


def test_teleport_table_draw_guards_a_branch_below_the_floor():
    # Over the product resource |00> a payload |0> never yields a psi
    # outcome; a draw >= 1 selects (1, 1), which the draw must refuse.
    table = teleport_table(hand_built_correlations(np.diag([1.0, 0.0, 0.0, 0.0])))
    weights = teleport_weights(table.tolist(), (0.0, 0.0, 1.0))
    assert weights == pytest.approx((0.5, 0.0, 0.5, 0.0), abs=1e-15)
    with pytest.raises(ArithmeticError, match=r"Bell outcome \(1, 1\) has weight 0"):
        draw_bell_outcome(weights, cumulative_weights(weights), ForcedDraw(1.5))


def test_teleport_table_needs_a_two_qubit_resource():
    # A pair's correlations are 4x4; a smaller or larger matrix is refused.
    for wrong in (np.eye(2), np.eye(8)):
        with pytest.raises(ValueError):
            teleport_table(wrong)


# -- superdense coding --------------------------------------------------------


def test_superdense_round_trip_all_messages():
    rng = np.random.default_rng(31)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        joint = superdense_encode(bits, werner_oracle(1.0))
        assert superdense_decode(joint, rng) == bits


def test_superdense_encoding_images():
    psi_plus = hand_built_correlations(bell_matrix(0, 1))
    phi_minus = hand_built_correlations(bell_matrix(1, 0))
    pair = werner_oracle(1.0)
    assert np.allclose(superdense_encode((0, 1), pair), psi_plus, atol=1e-12)
    assert np.allclose(superdense_encode((1, 0), pair), phi_minus, atol=1e-12)
    phi_plus = hand_built_correlations(bell_matrix(0, 0))
    assert np.allclose(superdense_encode((0, 0), pair), phi_plus, atol=1e-12)


def test_superdense_encode_is_the_frame_on_the_first_half():
    # Flipping the rows of T is the Pauli frame of the message applied to
    # the sender's qubit of the register.
    rng = np.random.default_rng(68)
    for _ in range(20):
        rho = _random_mixed(rng, 4)
        for bits in SUPERDENSE_MESSAGES:
            encoded = superdense_encode(bits, hand_built_correlations(rho))
            frame = np.kron(pauli_frame(bits), I2)
            framed = frame @ rho @ frame.conj().T
            assert np.max(np.abs(encoded - hand_built_correlations(framed))) <= 1e-15, bits
            corrected_state = pauli_correct(QuantumState(2, rho), 0, bits)
            assert np.allclose(corrected_state.matrix, framed, rtol=0.0, atol=1e-15), bits


def test_superdense_werner_statistics_match_born_oracle():
    w = 0.9
    rng = np.random.default_rng(32)
    pair = werner_oracle(w)
    per_message = 25_000
    encodings = {
        (0, 0): I2,
        (0, 1): X,
        (1, 0): Z,
        (1, 1): X @ Z,
    }
    for bits, u in encodings.items():
        lifted = np.kron(u, I2)
        encoded = lifted @ werner_matrix(w) @ lifted.conj().T
        # exact Born probability of the correct Bell projector
        born = float(np.real(np.trace(encoded @ bell_matrix(*bits))))
        assert born == pytest.approx(w + (1 - w) / 4, abs=1e-12)
        ok = 0
        for _ in range(per_message):
            joint = superdense_encode(bits, pair)
            if superdense_decode(joint, rng) == bits:
                ok += 1
        assert abs(ok / per_message - born) < 0.01


def test_superdense_distribution_is_werner_closed_form():
    # A Werner pair of weight w decodes to the sent message with probability
    # (1 + 3w) / 4 and to each other message with (1 - w) / 4.
    messages = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for w in (1.0, 0.9, 0.7, 0.34):
        for bits in messages:
            pair = werner_oracle(w)
            distribution = superdense_distribution(superdense_encode(bits, pair))
            expected = [(1 + 3 * w) / 4 if m == bits else (1 - w) / 4 for m in messages]
            assert np.allclose(distribution, expected, rtol=0.0, atol=1e-12), (w, bits)


def test_superdense_distribution_matches_cnot_h_circuit_near_phi_plus():
    # Mixed pairs that are not Bell-diagonal, all within fidelity 0.5 of
    # phi+, so every message decodes without ambiguity.
    rng = np.random.default_rng(66)
    for _ in range(20):
        rho = 0.7 * bell_matrix(0, 0) + 0.3 * _random_mixed(rng, 4)
        pair = hand_built_correlations(rho)
        for bits in SUPERDENSE_MESSAGES:
            frame = np.kron(pauli_frame(bits), I2)
            expected = hand_built_bell_weights(frame @ rho @ frame.conj().T, 0, 1, 2)
            distribution = superdense_distribution(superdense_encode(bits, pair))
            assert np.allclose(distribution, expected, rtol=0.0, atol=1e-12), bits


def test_superdense_decode_ambiguity_on_maximally_mixed():
    rng = np.random.default_rng(33)
    mixed = np.eye(4, dtype=complex) / 4
    with pytest.raises(RuntimeError, match="best Bell overlap 0.2500 below 0.5"):
        superdense_decode(hand_built_correlations(mixed), rng)


# -- entanglement swapping ----------------------------------------------------


def test_swap_ideal_inputs_yield_phi_plus():
    # Each outcome of two phi+ pairs has weight 1/4, and its corrected end
    # pair is phi+.
    phi = werner_oracle(1.0)
    weights, fidelities = swap_outcome_table(phi, phi)
    assert weights == pytest.approx((0.25,) * 4, abs=1e-15)
    assert fidelities == pytest.approx((1.0,) * 4, abs=1e-12)
    for index, bits in enumerate(SUPERDENSE_MESSAGES):
        drawn, pending = swap_circuit(bell_matrix(0, 0), bell_matrix(0, 0), forced_outcome(index))
        assert drawn == bits
        assert np.allclose(corrected(pending, bits), bell_matrix(0, 0), atol=1e-10)


def test_swap_signals_even_for_trivial_outcome():
    # Every swap sends its two bits to the far end, (0, 0) included.
    topology = Topology(
        ("l", "m", "r"),
        (ClassicalLink("l", "m", 1), ClassicalLink("m", "r", 1)),
        tuple(QuantumLink(a, b, depolarizing_channel(0.0), 1.0, 1) for a, b in ("lm", "mr")),
    )
    result = SCENARIOS["swap"](topology, {"n_swaps": 40})([42])
    deliveries = [d for _, _, kind, d in result.trace if kind is EventKind.CLASSICAL_DELIVER]
    sent = [message.bits for message in deliveries]
    assert len(sent) == 40
    assert all(bits in SUPERDENSE_MESSAGES for bits in sent)
    assert any(bits == (0, 0) for bits in sent)
    assert result.bits_end_to_end == 2 * 40


def test_swap_preserves_werner_parameter():
    # Swapping a Werner pair of weight w with phi+ leaves a Werner pair of
    # weight w after every outcome.
    w = 0.7
    weights, fidelities = swap_outcome_table(
        werner_oracle(w), werner_oracle(1.0)
    )
    assert weights == pytest.approx((0.25,) * 4, abs=1e-15)
    for index, bits in enumerate(SUPERDENSE_MESSAGES):
        _, pending = swap_circuit(werner_matrix(w), bell_matrix(0, 0), forced_outcome(index))
        assert np.allclose(corrected(pending, bits), werner_matrix(w), atol=1e-9)
        assert fidelities[index] == pytest.approx((1 + 3 * w) / 4, abs=1e-12)


def test_swap_outcome_distribution():
    rng = np.random.default_rng(44)
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    n = 100_000
    phi = werner_oracle(1.0)
    weights, _ = swap_outcome_table(phi, phi)
    cumulative = cumulative_weights(weights)
    for _ in range(n):
        counts[SUPERDENSE_MESSAGES[draw_bell_outcome(weights, cumulative, rng)]] += 1
    for bits, count in counts.items():
        assert abs(count / n - 0.25) < 0.01, (bits, count / n)


def test_swap_uncorrected_pair_is_pauli_frame_of_phi_plus():
    # Without the correction the end pair is the Bell state the outcome
    # names, orthogonal to phi+ unless the outcome is (0, 0); the table's
    # fidelity is that of the corrected pair.
    phi = bell_matrix(0, 0)
    _, fidelities = swap_outcome_table(PHI_PLUS_DIAGONAL, PHI_PLUS_DIAGONAL)
    for index, bits in enumerate(SUPERDENSE_MESSAGES):
        drawn, pending = swap_circuit(phi, phi, forced_outcome(index))
        assert drawn == bits
        lifted = np.kron(I2, pauli_frame(bits))
        assert np.allclose(pending, lifted @ phi @ lifted.conj().T, atol=1e-10)
        assert overlap(pending, phi) == pytest.approx(1.0 if bits == (0, 0) else 0.0, abs=1e-10)
        assert fidelities[index] == pytest.approx(overlap(corrected(pending, bits), phi), abs=1e-12)


def _random_mixed(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_swap_outcome_table_agrees_with_entanglement_swap():
    # A cell that swaps one pair state many times reads each outcome's
    # weight and corrected end-pair fidelity from one table; forcing each
    # outcome through the hand-built swap circuit must give the same
    # weight and pair.
    rng = np.random.default_rng(65)
    phi = bell_matrix(0, 0)
    for _ in range(20):
        left, right = _random_mixed(rng, 4), _random_mixed(rng, 4)
        weights, fidelities = swap_outcome_table(
            hand_built_correlations(left), hand_built_correlations(right)
        )
        expected_weights = hand_built_bell_weights(np.kron(left, right), 1, 2, 4)
        assert np.allclose(weights, expected_weights, rtol=0.0, atol=1e-12)
        upper = np.cumsum(weights) / sum(weights)
        lower = np.concatenate(([0.0], upper[:-1]))
        for index, bits in enumerate(SUPERDENSE_MESSAGES):
            draw = ForcedDraw((lower[index] + upper[index]) / 2)
            drawn, pending = swap_circuit(left, right, draw)
            assert drawn == bits
            oracle = overlap(corrected(pending, bits), phi)
            assert abs(fidelities[index] - oracle) <= 1e-12


def test_protocols_reject_a_pair_that_is_not_two_qubits():
    # Only a 4x4 matrix is a pair's correlations; 2x2 and 8x8 ones are refused.
    for wrong in (np.eye(2), np.eye(8)):
        with pytest.raises(ValueError):
            superdense_encode((0, 1), wrong)
        with pytest.raises(ValueError):
            swap_outcome_table(wrong, werner_oracle(1.0))


# -- W-state election ---------------------------------------------------------


def test_election_one_hot_and_uniform_across_million_rounds():
    rng = np.random.default_rng(51)
    n = 4
    rounds = 1_000_000
    # Each round has exactly one winner: the probabilities are the W
    # state's one-hot diagonal (test_election_probabilities_are_w_state_diagonal)
    wins = rng.multinomial(rounds, w_election_probabilities(n))
    assert wins.shape == (n,)
    assert wins.sum() == rounds
    for node in range(n):
        assert abs(wins[node] / rounds - 1 / n) < 0.01


def test_election_probabilities_are_w_state_diagonal():
    for n in range(2, 11):
        diagonal = np.real(np.diag(make_w_state(n).matrix))
        one_hot = [1 << (n - 1 - q) for q in range(n)]
        probabilities = w_election_probabilities(n)
        assert np.allclose(probabilities, diagonal[one_hot], rtol=0.0, atol=1e-12), n
        assert diagonal[one_hot].sum() == pytest.approx(1.0, abs=1e-12)


def test_election_two_nodes_is_fair_coin():
    rng = np.random.default_rng(52)
    rounds = 100_000
    state = make_w_state(2)
    wins = sum(w_election_round(state, rng)[0] for _ in range(rounds))
    assert abs(wins / rounds - 0.5) < 0.01


def test_election_requires_w_resource():
    rng = np.random.default_rng(54)
    with pytest.raises(ValueError):
        w_election_round(werner_pair(1.0), rng)


def test_election_checks_the_state_before_its_draw():
    # Weight at |000> just below the floor is read as a W state and the
    # round draws once; weight at the floor is refused before any draw.
    w = make_w_state(3).matrix
    zero = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0]).astype(complex)
    below = QuantumState(3, (1 - EIGENVALUE_FLOOR / 2) * w + EIGENVALUE_FLOOR / 2 * zero)
    counting = _CountingDraw(55)
    winner, outcomes = w_election_round(below, counting)
    assert counting.calls == 1
    assert sum(outcomes) == 1 and outcomes[winner] == 1
    at_floor = QuantumState(3, (1 - EIGENVALUE_FLOOR) * w + EIGENVALUE_FLOOR * zero)
    with pytest.raises(ValueError):
        w_election_round(at_floor, counting)
    assert counting.calls == 1


# -- inputs are left alone ----------------------------------------------------


def _read_only(state):
    matrix = state.matrix.copy()
    matrix.flags.writeable = False
    return QuantumState(state.num_qubits, matrix)


def _plain(result):
    """A protocol's result with every state replaced by its matrix and
    every array by its entries, as lists."""
    if isinstance(result, QuantumState):
        return (result.num_qubits, result.matrix.tolist())
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, tuple):
        return tuple(_plain(item) for item in result)
    return result


def test_protocols_leave_their_inputs_alone():
    # A protocol reads its states and correlations and returns new ones,
    # so one input serves any number of calls: with equal seeds two calls
    # agree, and the inputs (read-only here, so a write in place raises)
    # are unchanged.
    payload = _read_only(random_pure_state(np.random.default_rng(91)))
    pair = _read_only(werner_pair(0.8))
    correlations = hand_built_correlations(pair.matrix)
    correlations.flags.writeable = False
    joint = _read_only(QuantumState(3, np.kron(payload.matrix, pair.matrix)))
    w_state = _read_only(make_w_state(3))
    calls = {
        "superdense_encode": (lambda rng: superdense_encode((1, 1), correlations), (correlations,)),
        "bell_basis_measure": (lambda rng: bell_basis_measure(joint, 0, 2, rng), (joint.matrix,)),
        "w_election_round": (lambda rng: w_election_round(w_state, rng), (w_state.matrix,)),
    }
    for name, (call, inputs) in calls.items():
        before = [array.copy() for array in inputs]
        first = _plain(call(np.random.default_rng(92)))
        second = _plain(call(np.random.default_rng(92)))
        assert first == second, name
        for array, copy in zip(inputs, before):
            assert np.array_equal(array, copy), name


def test_correction_message_validates_bits():
    # A message is plain data: its bits are valid because a scenario sends
    # only SUPERDENSE_MESSAGES, the four Bell outcomes (swap's deliveries:
    # test_swap_signals_even_for_trivial_outcome).
    assert sorted(SUPERDENSE_MESSAGES) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    topology = Topology(
        ("a", "b"),
        (ClassicalLink("a", "b", 1),),
        (QuantumLink("a", "b", depolarizing_channel(0.1), 1.0, 1),),
    )
    result = SCENARIOS["teleport"](topology, {"n_teleports": 40})([7])
    sent = [d.bits for _, _, kind, d in result.trace if kind is EventKind.CLASSICAL_DELIVER]
    assert len(sent) == 40 and set(sent) <= set(SUPERDENSE_MESSAGES)
    with pytest.raises(AttributeError, match="can't set attribute"):
        CorrectionMessage((0, 1), "a", "b", Purpose.TELEPORT).bits = (2, 0)
