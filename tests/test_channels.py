"""Kraus channels, serial/switch composition, Holevo capacity estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetsim.channels import (
    ChannelModel,
    Ensemble,
    PLUS_MINUS_BASIS,
    apply_channel,
    bottleneck_check,
    channel_from_spec,
    compose_serial,
    computational_ensemble,
    depolarizing_channel,
    holevo_information,
    identity_channel,
    quantum_switch,
    reduce_kraus,
)
from qnetsim import qstate
from qnetsim.errors import UnsupportedDimensionError
from qnetsim.qstate import QuantumState, new_register, random_pure_state

# independent single-qubit references
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)

# tomographically complete probe set for action-equality checks
PROBES = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
)


def _entropy_bits(matrix):
    """Test-local entropy, independent of the package implementation."""
    evals = np.linalg.eigvalsh(matrix)
    evals = evals[evals > 1e-12]
    return float(-(evals * np.log2(evals)).sum())


def _random_cptp(rng, n_kraus=3):
    """Ginibre Kraus set normalized to completeness."""
    raw = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n_kraus)]
    gram = sum(k.conj().T @ k for k in raw)
    w, v = np.linalg.eigh(gram)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return ChannelModel.from_kraus([k @ inv_sqrt for k in raw])


def _dep_holevo(p):
    """Analytic chi of dep(p) for the computational ensemble: 1 - H2(p/2)."""
    x = p / 2.0
    if x in (0.0, 1.0):
        return 1.0
    return 1.0 + x * math.log2(x) + (1 - x) * math.log2(1 - x)


# -- constructors -------------------------------------------------------------


def test_completeness_enforced_at_construction():
    with pytest.raises(ValueError):
        ChannelModel((0.5 * I2,), 2, 2)
    with pytest.raises(ValueError):
        ChannelModel((), 2, 2)


def test_depolarizing_parameter_range():
    with pytest.raises(ValueError):
        depolarizing_channel(-0.1)
    with pytest.raises(ValueError):
        depolarizing_channel(1.1)


def test_depolarizing_zero_is_identity():
    rng = np.random.default_rng(1)
    channel = depolarizing_channel(0.0)
    state = random_pure_state(rng)
    assert np.allclose(apply_channel(channel, state).matrix, state.matrix, atol=1e-12)


def test_depolarizing_one_is_constant():
    rng = np.random.default_rng(2)
    channel = depolarizing_channel(1.0)
    for _ in range(5):
        state = random_pure_state(rng)
        assert np.allclose(apply_channel(channel, state).matrix, I2 / 2, atol=1e-12)


def test_depolarizing_half_on_zero_matches_kraus_sum():
    # oracle: explicit four-term sum with hand-written weights
    rho = np.diag([1.0, 0.0]).astype(complex)
    k0 = math.sqrt(1 - 3 * 0.5 / 4)
    k1 = math.sqrt(0.5 / 4)
    oracle = (
        k0 * k0 * rho
        + k1 * k1 * (X @ rho @ X)
        + k1 * k1 * (Y @ rho @ Y.conj().T)
        + k1 * k1 * (Z @ rho @ Z)
    )
    assert np.allclose(oracle, np.diag([0.75, 0.25]), atol=1e-15)
    out = apply_channel(depolarizing_channel(0.5), new_register(1, "0"))
    assert np.allclose(out.matrix, oracle, atol=1e-12)


# -- application --------------------------------------------------------------


def test_apply_channel_embedded_matches_kron_oracle():
    rng = np.random.default_rng(3)
    channel = _random_cptp(rng)
    state = random_pure_state(rng, 2)
    # embed by explicit kron: qubit 0 is the most significant factor
    for target, embed in ((0, lambda k: np.kron(k, I2)), (1, lambda k: np.kron(I2, k))):
        oracle = sum(embed(k) @ state.matrix @ embed(k).conj().T for k in channel.kraus_ops)
        out = apply_channel(channel, state, targets=(target,))
        assert np.allclose(out.matrix, oracle, atol=1e-12)
        out.check()


def test_embed_cache_is_bounded_and_keyed_by_channel():
    # more distinct channels than the cache holds: every result must still
    # match the kron oracle (no stale entry reused) and the cache stays bounded
    rng = np.random.default_rng(5)
    state = random_pure_state(rng, 2)
    for k in range(qstate.EMBED_CACHE_SIZE + 20):
        channel = _random_cptp(rng) if k % 2 else depolarizing_channel(k / 400)
        lifted = [np.kron(I2, m) for m in channel.kraus_ops]
        oracle = sum(m @ state.matrix @ m.conj().T for m in lifted)
        out = apply_channel(channel, state, targets=(1,))
        assert np.allclose(out.matrix, oracle, atol=1e-12)
    assert len(qstate._EMBED_CACHE) <= qstate.EMBED_CACHE_SIZE


def test_depolarizing_half_of_bell_gives_product():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    out = apply_channel(depolarizing_channel(1.0), QuantumState(2, bell), targets=(0,))
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-10)


def test_apply_channel_dimension_checks():
    with pytest.raises(ValueError):
        apply_channel(depolarizing_channel(0.1), new_register(2, "00"))
    with pytest.raises(ValueError):
        apply_channel(depolarizing_channel(0.1), new_register(2, "00"), targets=(0, 0))
    with pytest.raises(IndexError):
        apply_channel(depolarizing_channel(0.1), new_register(2, "00"), targets=(4,))


# -- serial composition -------------------------------------------------------


def test_identity_compose_keeps_action():
    rng = np.random.default_rng(4)
    channel = _random_cptp(rng)
    composed = compose_serial(channel, identity_channel())
    for probe in PROBES:
        assert np.allclose(composed.apply_matrix(probe), channel.apply_matrix(probe), atol=1e-12)


def test_fully_depolarizing_absorbs_composition():
    composed = compose_serial(depolarizing_channel(0.3), depolarizing_channel(1.0))
    for probe in PROBES:
        assert np.allclose(composed.apply_matrix(probe), I2 / 2, atol=1e-12)


def test_serial_depolarizing_parameter_rule():
    # dep(p1) then dep(p2) acts as dep(p1 + p2 - p1*p2)
    p1, p2 = 0.3, 0.5
    composed = compose_serial(depolarizing_channel(p1), depolarizing_channel(p2))
    assert len(composed.kraus_ops) == 16
    effective = depolarizing_channel(p1 + p2 - p1 * p2)
    for probe in PROBES:
        assert np.allclose(composed.apply_matrix(probe), effective.apply_matrix(probe), atol=1e-12)


def test_compose_serial_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_serial(depolarizing_channel(0.1), identity_channel(2))


# -- quantum switch -----------------------------------------------------------


def test_switch_with_definite_control_reduces_to_serial():
    rng = np.random.default_rng(5)
    c1, c2 = _random_cptp(rng), _random_cptp(rng)
    for control_bits, serial in (("0", compose_serial(c1, c2)), ("1", compose_serial(c2, c1))):
        switch = quantum_switch(c1, c2, new_register(1, control_bits))
        for probe in PROBES:
            control = new_register(1, control_bits).matrix
            joint_out = switch.apply_matrix(np.kron(probe, control))
            traced = joint_out[0::2, 0::2] + joint_out[1::2, 1::2]
            assert np.allclose(traced, serial.apply_matrix(probe), atol=1e-10)


def test_switch_joint_completeness_and_lift():
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0),
                            QuantumState(1, PLUS))
    total = sum(k.conj().T @ k for k in switch.kraus_ops)
    assert np.allclose(total, np.eye(4), atol=1e-10)
    lifted = switch.lift(new_register(1, "0"))
    assert lifted.num_qubits == 2
    assert np.allclose(lifted.matrix, np.kron(np.diag([1.0, 0.0]), PLUS), atol=1e-15)


def test_switch_rejects_non_qubit_channels():
    with pytest.raises(UnsupportedDimensionError):
        quantum_switch(identity_channel(2), identity_channel(2), new_register(1, "0"))


def test_switch_of_depolarizing_outputs_are_control_correlated():
    # oracle: the 13-operator joint Kraus set built from scratch
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0),
                            QuantumState(1, PLUS))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    paulis = (I2, X, Y, Z)
    oracle_ops = [0.5 * np.eye(4, dtype=complex)]
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            if i != j:
                oracle_ops.append(np.kron(si @ sj / 4.0, p0) + np.kron(sj @ si / 4.0, p1))
    assert len(oracle_ops) == 13
    completeness = sum(k.conj().T @ k for k in oracle_ops)
    assert np.allclose(completeness, np.eye(4), atol=1e-12)

    joint_in = np.kron(np.diag([1.0, 0.0]), PLUS)
    oracle_out = sum(k @ joint_in @ k.conj().T for k in oracle_ops)
    impl_out = switch.apply_matrix(joint_in)
    assert np.allclose(impl_out, oracle_out, atol=1e-12)
    # output is not a product of its marginals
    sys_marg = oracle_out[0::2, 0::2] + oracle_out[1::2, 1::2]
    ctl_marg = oracle_out[:2, :2] + oracle_out[2:, 2:]
    assert np.max(np.abs(oracle_out - np.kron(sys_marg, ctl_marg))) > 0.01


# -- Holevo information -------------------------------------------------------


def test_holevo_identity_channel_is_one_bit():
    estimate = holevo_information(identity_channel())
    assert estimate.holevo_bits == pytest.approx(1.0, abs=1e-9)
    assert estimate.is_lower_bound


def test_holevo_fully_depolarizing_is_zero():
    estimate = holevo_information(depolarizing_channel(1.0))
    assert estimate.holevo_bits == pytest.approx(0.0, abs=1e-9)


def test_holevo_matches_analytic_depolarizing_curve():
    for p in (0.2, 0.5, 0.8):
        estimate = holevo_information(depolarizing_channel(p))
        assert estimate.holevo_bits == pytest.approx(_dep_holevo(p), abs=1e-9)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(((0.7, new_register(1, "0")), (0.7, new_register(1, "1"))))
    with pytest.raises(ValueError):
        Ensemble(((-0.5, new_register(1, "0")), (1.5, new_register(1, "1"))))


SWITCH_ACTIVATION_GOLDEN = 0.048794940695398914


def _switch_activation_oracle():
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
    return _entropy_bits(avg) - 0.5 * _entropy_bits(flagged[0]) - 0.5 * _entropy_bits(flagged[1])


def test_switch_activation_against_brute_force_oracle():
    oracle = _switch_activation_oracle()
    assert abs(oracle - SWITCH_ACTIVATION_GOLDEN) < 1e-9
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0),
                            QuantumState(1, PLUS))
    estimate = holevo_information(switch, control_measurement=PLUS_MINUS_BASIS)
    assert abs(estimate.holevo_bits - oracle) < 1e-6
    assert estimate.holevo_bits > 0.02


def test_switch_with_traced_control_stays_zero():
    # discarding the control kills the activation
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0),
                            QuantumState(1, PLUS))
    estimate = holevo_information(switch, control_measurement=None)
    assert estimate.holevo_bits == pytest.approx(0.0, abs=1e-9)


# -- bottleneck ---------------------------------------------------------------


def test_bottleneck_identity_pair():
    report = bottleneck_check(identity_channel(), identity_channel())
    assert report.chi_serial == pytest.approx(1.0, abs=1e-9)
    assert report.holds


def test_bottleneck_zero_capacity_slot():
    report = bottleneck_check(depolarizing_channel(1.0), depolarizing_channel(0.2))
    assert report.chi_serial == pytest.approx(0.0, abs=1e-9)
    assert report.holds
    report = bottleneck_check(depolarizing_channel(0.2), depolarizing_channel(1.0))
    assert report.chi_serial == pytest.approx(0.0, abs=1e-9)
    assert report.holds


@settings(max_examples=30, deadline=None)
@given(
    p1=st.floats(0.0, 1.0, allow_nan=False),
    p2=st.floats(0.0, 1.0, allow_nan=False),
)
def test_bottleneck_holds_for_depolarizing_pairs(p1, p2):
    report = bottleneck_check(depolarizing_channel(p1), depolarizing_channel(p2))
    assert report.holds
    assert report.chi_serial <= min(report.chi_first, report.chi_second) + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_composition_preserves_completeness(seed):
    rng = np.random.default_rng(seed)
    composed = compose_serial(_random_cptp(rng), _random_cptp(rng))
    total = sum(k.conj().T @ k for k in composed.kraus_ops)
    assert np.allclose(total, I2, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_holevo_bounded_by_output_dimension(seed):
    rng = np.random.default_rng(seed)
    estimate = holevo_information(_random_cptp(rng))
    assert -1e-9 <= estimate.holevo_bits <= 1.0 + 1e-9


# -- Kraus reduction ----------------------------------------------------------


def test_reduce_kraus_shrinks_composed_depolarizing():
    composed = compose_serial(depolarizing_channel(0.3), depolarizing_channel(0.5))
    reduced = reduce_kraus(composed)
    assert len(reduced.kraus_ops) <= 4 < len(composed.kraus_ops)
    for probe in PROBES:
        assert np.allclose(reduced.apply_matrix(probe), composed.apply_matrix(probe), atol=1e-10)


def test_reduce_kraus_random_channel_action_preserved():
    rng = np.random.default_rng(17)
    channel = compose_serial(_random_cptp(rng, 4), _random_cptp(rng, 4))
    reduced = reduce_kraus(channel)
    assert len(reduced.kraus_ops) <= 4
    for probe in PROBES:
        assert np.allclose(reduced.apply_matrix(probe), channel.apply_matrix(probe), atol=1e-10)


# -- serialization ------------------------------------------------------------


def test_channel_spec_round_trip_depolarizing():
    # A config may name the channel or write out its Kraus list:
    # dep(1/4) = {sqrt(13/16) I, 1/4 X, 1/4 Y, 1/4 Z}.
    a, b = math.sqrt(13) / 4, 0.25
    by_name = channel_from_spec({"type": "depolarizing", "p": 0.25})
    by_kraus = channel_from_spec(
        {
            "type": "kraus-list",
            "kraus": [
                [[[a, 0], [0, 0]], [[0, 0], [a, 0]]],
                [[[0, 0], [b, 0]], [[b, 0], [0, 0]]],
                [[[0, 0], [0, -b]], [[0, b], [0, 0]]],
                [[[b, 0], [0, 0]], [[0, 0], [-b, 0]]],
            ],
        }
    )
    oracle = depolarizing_channel(0.25)
    for probe in PROBES:
        for channel in (by_name, by_kraus):
            assert np.allclose(channel.apply_matrix(probe), oracle.apply_matrix(probe), atol=1e-12)


def test_channel_spec_round_trip_kraus_list():
    # The fully depolarizing channel written as {I, X, Y, Z} / 2.
    channel = channel_from_spec(
        {
            "type": "kraus-list",
            "kraus": [
                [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]],
                [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]],
                [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
            ],
        }
    )
    oracle = depolarizing_channel(1.0)
    for probe in PROBES:
        assert np.allclose(channel.apply_matrix(probe), oracle.apply_matrix(probe), atol=1e-12)
        assert np.allclose(channel.apply_matrix(probe), I2 / 2, atol=1e-12)


def test_channel_spec_rejects_unknown_type():
    with pytest.raises(ValueError):
        channel_from_spec({"type": "amplitude_damping", "gamma": 0.5})


def test_default_ensemble_is_uniform_computational():
    ensemble = computational_ensemble()
    assert len(ensemble.entries) == 2
    probs = [p for p, _ in ensemble.entries]
    assert probs == [0.5, 0.5]
