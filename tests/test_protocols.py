"""Bell/W preparation, teleportation, superdense coding, swapping, election."""

import math

import numpy as np
import pytest

from qnetsim.errors import CapacityError, ConsumedResourceError, DecodeAmbiguityError
from qnetsim.protocols import (
    CorrectionMessage,
    EntangledResource,
    Purpose,
    ResourceKind,
    apply_correction,
    entanglement_swap,
    make_bell_pair,
    make_w_state,
    phi_plus_state,
    superdense_decode,
    superdense_encode,
    teleport,
    w_election_round,
    werner_pair,
)
from qnetsim.qstate import QuantumState, fidelity, measure, random_pure_state

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def bell_matrix(phase, parity):
    """Hand-built Bell projector |B_zp><B_zp| without package helpers."""
    v = np.zeros(4, dtype=complex)
    v[parity] = 1 / math.sqrt(2)
    v[3 - parity] = (-1 if phase else 1) / math.sqrt(2)
    return np.outer(v, v.conj())


def werner_matrix(w):
    return w * bell_matrix(0, 0) + (1 - w) * np.eye(4) / 4


def pauli_frame(bits):
    """Hand-built Pauli that the Bell outcome ``(phase, parity)`` leaves."""
    return (Z if bits[0] else I2) @ (X if bits[1] else I2)


def teleported(payload, resource, rng):
    """Both steps back to back: the correction is always delivered."""
    message, pending = teleport(payload, resource, rng)
    return apply_correction(pending, message)


def swapped(left, right, rng):
    message, pending = entanglement_swap(left, right, rng)
    return apply_correction(pending, message)


# -- resource preparation -----------------------------------------------------


def test_bell_pair_is_exact_phi_plus():
    pair = make_bell_pair(("alice", "bob"))
    assert np.allclose(pair.state.matrix, bell_matrix(0, 0), atol=1e-15)
    assert pair.kind is ResourceKind.BELL_PHI_PLUS
    assert pair.holders == ("alice", "bob")
    assert fidelity(pair.state, phi_plus_state()) == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_marginals_are_maximally_mixed():
    pair = make_bell_pair()
    tensor = pair.state.matrix.reshape(2, 2, 2, 2)
    marg0 = np.einsum("abcb->ac", tensor)
    marg1 = np.einsum("abad->bd", tensor)
    assert np.allclose(marg0, I2 / 2, atol=1e-12)
    assert np.allclose(marg1, I2 / 2, atol=1e-12)


def test_bell_measurement_statistics():
    rng = np.random.default_rng(13)
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    n = 100_000
    for _ in range(n):
        out0, post = measure(make_bell_pair().state, 0, rng)
        out1, _ = measure(post, 1, rng)
        counts[f"{out0.bit}{out1.bit}"] += 1
    assert counts["01"] == 0 and counts["10"] == 0
    assert abs(counts["00"] / n - 0.5) < 0.01
    assert abs(counts["11"] / n - 0.5) < 0.01


def test_werner_pair_matrix_and_fidelity():
    for w in (0.0, 0.37, 1.0):
        pair = werner_pair(w)
        assert np.allclose(pair.state.matrix, werner_matrix(w), atol=1e-12)
        assert fidelity(pair.state, phi_plus_state()) == pytest.approx((1 + 3 * w) / 4, abs=1e-12)


def test_w_state_two_nodes():
    res = make_w_state(2)
    v = np.array([0, 1, 1, 0]) / math.sqrt(2)
    assert np.allclose(res.state.matrix, np.outer(v, v), atol=1e-15)


def test_w_state_three_nodes_amplitudes():
    res = make_w_state(3)
    one_hot = (1, 2, 4)  # |001>, |010>, |100>
    diag = np.real(np.diag(res.state.matrix))
    for idx in range(8):
        expected = 1 / 3 if idx in one_hot else 0.0
        assert diag[idx] == pytest.approx(expected, abs=1e-12)
    assert res.state.purity() == pytest.approx(1.0, abs=1e-12)


def test_w_state_purity_across_range():
    for n in range(2, 11):
        assert make_w_state(n).state.purity() == pytest.approx(1.0, abs=1e-9)


def test_w_state_node_count_bounds():
    with pytest.raises(CapacityError):
        make_w_state(1)
    with pytest.raises(CapacityError):
        make_w_state(11)


# -- teleportation ------------------------------------------------------------


def test_teleport_ideal_resource_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(50):
        payload = random_pure_state(rng)
        out = teleported(payload, make_bell_pair(), rng)
        assert np.allclose(out.matrix, payload.matrix, atol=1e-10)


def test_teleport_emits_exactly_one_two_bit_message():
    rng = np.random.default_rng(22)
    message, pending = teleport(random_pure_state(rng), make_bell_pair(("s", "d")), rng)
    assert isinstance(message, CorrectionMessage)
    assert len(message.bits) == 2
    assert message.purpose is Purpose.TELEPORT
    assert (message.origin, message.target) == ("s", "d")
    assert pending.num_qubits == 1


def test_teleport_uncorrected_state_is_pauli_frame_of_payload():
    # Before the correction arrives the destination holds the payload under
    # the Pauli named by the outcome; averaged over the four equally likely
    # outcomes that is I/2, so the destination cannot guess the payload.
    rng = np.random.default_rng(23)
    payload = random_pure_state(rng)
    seen = {}
    for _ in range(200):
        message, pending = teleport(payload, make_bell_pair(), rng)
        p = pauli_frame(message.bits)
        assert np.allclose(pending.matrix, p @ payload.matrix @ p.conj().T, atol=1e-10)
        seen[message.bits] = pending.matrix
    assert set(seen) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert np.allclose(sum(seen.values()) / 4, I2 / 2, atol=1e-10)


def test_teleport_rejects_consumed_resource():
    rng = np.random.default_rng(24)
    resource = make_bell_pair()
    teleport(random_pure_state(rng), resource, rng)
    with pytest.raises(ConsumedResourceError):
        teleport(random_pure_state(rng), resource, rng)


def test_teleport_with_product_resource_degrades_to_mixed():
    rng = np.random.default_rng(25)
    payload = random_pure_state(rng)
    product = EntangledResource(
        QuantumState(2, np.eye(4, dtype=complex) / 4),
        ResourceKind.BELL_PHI_PLUS,
        ("a", "b"),
    )
    out = teleported(payload, product, rng)
    assert np.allclose(out.matrix, I2 / 2, atol=1e-10)
    assert float(np.real(np.trace(out.matrix @ payload.matrix))) == pytest.approx(0.5, abs=1e-9)


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
            corrected = correction @ block @ correction.conj().T
            total += float(np.real(np.trace(corrected @ payload_matrix)))
    return total


def test_teleport_werner_fidelity_matches_oracle():
    w = 0.8
    rng_oracle = np.random.default_rng(101)
    oracle = np.mean(
        [_teleport_fidelity_oracle(random_pure_state(rng_oracle).matrix, w) for _ in range(200)]
    )
    rng = np.random.default_rng(202)
    observed = []
    for _ in range(200):
        payload = random_pure_state(rng)
        out = teleported(payload, werner_pair(w), rng)
        observed.append(float(np.real(np.trace(out.matrix @ payload.matrix))))
    assert abs(np.mean(observed) - oracle) < 0.01
    # the Werner output fidelity is payload independent: (1 + w) / 2
    assert oracle == pytest.approx((1 + w) / 2, abs=1e-9)


# -- superdense coding --------------------------------------------------------


def test_superdense_round_trip_all_messages():
    rng = np.random.default_rng(31)
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        joint = superdense_encode(bits, make_bell_pair())
        assert superdense_decode(joint, rng) == bits


def test_superdense_encoding_images():
    psi_plus = bell_matrix(0, 1)
    phi_minus = bell_matrix(1, 0)
    assert np.allclose(superdense_encode((0, 1), make_bell_pair()).matrix, psi_plus, atol=1e-12)
    assert np.allclose(superdense_encode((1, 0), make_bell_pair()).matrix, phi_minus, atol=1e-12)
    assert np.allclose(
        superdense_encode((0, 0), make_bell_pair()).matrix, bell_matrix(0, 0), atol=1e-12
    )


def test_superdense_werner_statistics_match_born_oracle():
    w = 0.9
    rng = np.random.default_rng(32)
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
            joint = superdense_encode(bits, werner_pair(w))
            if superdense_decode(joint, rng) == bits:
                ok += 1
        assert abs(ok / per_message - born) < 0.01


def test_superdense_decode_ambiguity_on_maximally_mixed():
    rng = np.random.default_rng(33)
    mixed = QuantumState(2, np.eye(4, dtype=complex) / 4)
    with pytest.raises(DecodeAmbiguityError) as info:
        superdense_decode(mixed, rng)
    assert info.value.best_guess in [(0, 0), (0, 1), (1, 0), (1, 1)]


# -- entanglement swapping ----------------------------------------------------


def test_swap_ideal_inputs_yield_phi_plus():
    rng = np.random.default_rng(41)
    for _ in range(200):
        left = make_bell_pair(("A", "B"))
        right = make_bell_pair(("B", "C"))
        out = swapped(left, right, rng)
        assert np.allclose(out.matrix, bell_matrix(0, 0), atol=1e-10)
        assert left.consumed and right.consumed


def test_swap_signals_even_for_trivial_outcome():
    rng = np.random.default_rng(42)
    # force many swaps; every single one must emit a message to the far end
    sent = [
        entanglement_swap(make_bell_pair(("A", "B")), make_bell_pair(("B", "C")), rng)[0]
        for _ in range(40)
    ]
    assert all(m.purpose is Purpose.SWAP and len(m.bits) == 2 for m in sent)
    assert all((m.origin, m.target) == ("B", "C") for m in sent)
    assert any(m.bits == (0, 0) for m in sent)


def test_swap_preserves_werner_parameter():
    rng = np.random.default_rng(43)
    w = 0.7
    for _ in range(20):
        left = werner_pair(w, ("A", "B"))
        right = make_bell_pair(("B", "C"))
        out = swapped(left, right, rng)
        assert np.allclose(out.matrix, werner_matrix(w), atol=1e-9)


def test_swap_outcome_distribution():
    rng = np.random.default_rng(44)
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    n = 100_000
    for _ in range(n):
        message, _ = entanglement_swap(
            make_bell_pair(("A", "B")), make_bell_pair(("B", "C")), rng
        )
        counts[message.bits] += 1
    for bits, count in counts.items():
        assert abs(count / n - 0.25) < 0.01, (bits, count / n)


def test_swap_uncorrected_pair_is_pauli_frame_of_phi_plus():
    # Without the correction the end pair is the Bell state the outcome
    # names, orthogonal to phi+ unless the outcome is (0, 0).
    rng = np.random.default_rng(45)
    seen = set()
    for _ in range(100):
        message, pending = entanglement_swap(
            make_bell_pair(("A", "B")), make_bell_pair(("B", "C")), rng
        )
        lifted = np.kron(I2, pauli_frame(message.bits))
        expected = lifted @ bell_matrix(0, 0) @ lifted.conj().T
        assert np.allclose(pending.matrix, expected, atol=1e-10)
        overlap = float(np.real(np.trace(pending.matrix @ bell_matrix(0, 0))))
        assert overlap == pytest.approx(1.0 if message.bits == (0, 0) else 0.0, abs=1e-10)
        seen.add(message.bits)
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_swap_requires_shared_middle_node():
    rng = np.random.default_rng(46)
    with pytest.raises(ValueError):
        entanglement_swap(make_bell_pair(("A", "B")), make_bell_pair(("X", "C")), rng)


# -- W-state election ---------------------------------------------------------


def test_election_one_hot_and_uniform_across_million_rounds():
    rng = np.random.default_rng(51)
    n = 4
    rounds = 1_000_000
    wins = np.zeros(n, dtype=np.int64)
    for _ in range(rounds):
        winner, outcomes = w_election_round(make_w_state(n), rng)
        # zero tolerance for non one-hot outcomes
        assert sum(outcomes) == 1
        assert outcomes[winner] == 1
        wins[winner] += 1
    for node in range(n):
        assert abs(wins[node] / rounds - 1 / n) < 0.01


def test_election_two_nodes_is_fair_coin():
    rng = np.random.default_rng(52)
    rounds = 100_000
    wins = sum(w_election_round(make_w_state(2), rng)[0] for _ in range(rounds))
    assert abs(wins / rounds - 0.5) < 0.01


def test_election_consumes_resource():
    rng = np.random.default_rng(53)
    resource = make_w_state(3)
    w_election_round(resource, rng)
    assert resource.consumed
    with pytest.raises(ConsumedResourceError):
        w_election_round(resource, rng)


def test_election_requires_w_resource():
    rng = np.random.default_rng(54)
    with pytest.raises(ValueError):
        w_election_round(make_bell_pair(), rng)


def test_correction_message_validates_bits():
    with pytest.raises(ValueError):
        CorrectionMessage((0, 1, 1), "a", "b", Purpose.TELEPORT)
    with pytest.raises(ValueError):
        CorrectionMessage((2, 0), "a", "b", Purpose.TELEPORT)
