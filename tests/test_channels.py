"""Kraus channels, serial/switch composition, Holevo rates."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qnetsim.channels
from qnetsim.channels import (
    _SWITCH_BLOCKS,
    ChannelModel,
    _pauli_holevo,
    _ptm_holevo,
    apply_channel,
    bottleneck_check,
    channel_from_spec,
    compose_serial,
    depolarizing_channel,
    holevo_information,
    quantum_switch,
    reduce_kraus,
    switch_holevo_from_ptms,
)
from qnetsim.config import load_config
from qnetsim.qstate import QuantumState, random_pure_state
from qnetsim.runner import run_experiment
from qnetsim.services.phy import phy_effective_rate
from reference import (
    I2,
    SWITCH_ACTIVATION_GOLDEN,
    X,
    Y,
    Z,
    amplitude_damping_kraus,
    assert_density_matrix,
    basis_state,
    dep_holevo,
    entropy_bits,
    ginibre_kraus,
    load_benchmark_module,
    random_kraus,
    run_configs,
    switch_activation_oracle,
    switch_blocks_reference,
)

# What a PTM or rate of a two-qubit channel raises.
NO_QUBIT_PTM = "a Pauli transfer matrix needs a qubit channel, got dimension 4"
PLUS = np.full((2, 2), 0.5, dtype=complex)
PLUS_MINUS = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# tomographically complete probe set for action-equality checks
PROBES = (
    np.diag([1.0, 0.0]).astype(complex),
    np.diag([0.0, 1.0]).astype(complex),
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
)


def _holevo_oracle(outputs):
    """Holevo quantity in bits of equiprobable outputs, from eigvalsh."""
    avg = 0.5 * outputs[0] + 0.5 * outputs[1]
    return entropy_bits(avg) - 0.5 * entropy_bits(outputs[0]) - 0.5 * entropy_bits(outputs[1])


def _channel_outputs(channel):
    """Outputs of a qubit channel for the inputs |0> and |1>, by Kraus sums."""
    inputs = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    return [_act(channel, rho) for rho in inputs]


def _act(channel, rho):
    """The channel's Kraus sum on a density matrix."""
    return sum(k @ rho @ k.conj().T for k in channel.kraus_ops)


def _identity(num_qubits=1):
    return ChannelModel((np.eye(2**num_qubits, dtype=complex),))


def _unitary_channel(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return ChannelModel((q,))


def _oracle_ptm(channel):
    """tr(P_i E(P_j)) / 2 from test-local Kraus sums."""
    paulis = (I2, X, Y, Z)
    images = [sum(k @ pj @ k.conj().T for k in channel.kraus_ops) for pj in paulis]
    return np.array([[np.trace(pi @ image).real / 2 for image in images] for pi in paulis])


def _unitarily_mixed(channel, rng, extra=1):
    """The same channel written with another Kraus set: the operators,
    padded with ``extra`` zero operators, mixed by a random unitary."""
    ops = list(channel.kraus_ops) + [np.zeros((2, 2), dtype=complex)] * extra
    n = len(ops)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return ChannelModel(tuple(sum(u[i, j] * ops[j] for j in range(n)) for i in range(n)))


# -- constructors -------------------------------------------------------------


def test_completeness_enforced_at_construction():
    with pytest.raises(ValueError):
        ChannelModel((0.5 * I2,))
    with pytest.raises(ValueError):
        ChannelModel(())


@pytest.mark.parametrize(
    "ops",
    # a complete 2x4 set (it traces out one qubit of two), a qutrit identity,
    # and a one-qubit operator beside a two-qubit one
    [(np.eye(4)[:2], np.eye(4)[2:]), (np.eye(3),), (np.eye(2) / 2, np.eye(4))],
    ids=["2x4", "3x3", "2x2-and-4x4"],
)
def test_kraus_operators_must_be_square_on_qubits(ops):
    message = f"Kraus operators must share one 2^k x 2^k shape, got {ops[-1].shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChannelModel(ops)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(0, math.nan), complex(1, math.inf)])
@pytest.mark.parametrize("where", [(0, 0), (1, 0)])
def test_non_finite_kraus_entry_is_rejected(bad, where):
    # a NaN makes the completeness error NaN, which compares False with
    # any tolerance, so completeness alone would let this set through
    op = np.zeros((2, 2), dtype=complex)
    op[where] = bad
    with pytest.raises(ValueError, match="^Kraus operators have a non-finite entry$"):
        ChannelModel((I2, op))


def test_depolarizing_parameter_range():
    with pytest.raises(ValueError):
        depolarizing_channel(-0.1)
    with pytest.raises(ValueError):
        depolarizing_channel(1.1)


def test_depolarizing_channel_is_shared_and_frozen():
    depolarizing_channel.cache_clear()
    channel = depolarizing_channel(0.3)
    assert depolarizing_channel(0.3) is channel
    assert depolarizing_channel(0.4) is not channel
    assert depolarizing_channel.cache_info().maxsize == 256
    assert depolarizing_channel.cache_info().currsize == 2
    for name in ("kraus_ops", "stack", "dim"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(channel, name, getattr(channel, name))
    assert not channel.stack.flags.writeable
    # The shared instance keeps its ptm once built.
    assert depolarizing_channel(0.3).ptm is channel.ptm


def test_depolarizing_zero_is_identity():
    rng = np.random.default_rng(1)
    channel = depolarizing_channel(0.0)
    state = random_pure_state(rng)
    assert np.allclose(apply_channel(channel, state, targets=(0,)).matrix, state.matrix, atol=1e-12)


def test_depolarizing_one_is_constant():
    rng = np.random.default_rng(2)
    channel = depolarizing_channel(1.0)
    for _ in range(5):
        state = random_pure_state(rng)
        assert np.allclose(apply_channel(channel, state, targets=(0,)).matrix, I2 / 2, atol=1e-12)


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
    out = apply_channel(depolarizing_channel(0.5), QuantumState(1, basis_state("0")), targets=(0,))
    assert np.allclose(out.matrix, oracle, atol=1e-12)


# -- application --------------------------------------------------------------


def test_apply_channel_embedded_matches_kron_oracle():
    rng = np.random.default_rng(3)
    channel = ChannelModel(ginibre_kraus(rng))
    state = random_pure_state(rng, 2)
    # embed by explicit kron: qubit 0 is the most significant factor
    for target, embed in ((0, lambda k: np.kron(k, I2)), (1, lambda k: np.kron(I2, k))):
        oracle = sum(embed(k) @ state.matrix @ embed(k).conj().T for k in channel.kraus_ops)
        out = apply_channel(channel, state, targets=(target,))
        assert np.allclose(out.matrix, oracle, atol=1e-12)
        assert_density_matrix(out.matrix)


def test_apply_channel_on_full_register_matches_kron_oracle():
    rng = np.random.default_rng(8)
    channel = ChannelModel(ginibre_kraus(rng))
    state = random_pure_state(rng, 8)
    # qubit 5 of 8: five identity factors before it, two after
    lifted = [np.kron(np.kron(np.eye(2**5), k), np.eye(2**2)) for k in channel.kraus_ops]
    oracle = sum(m @ state.matrix @ m.conj().T for m in lifted)
    out = apply_channel(channel, state, targets=(5,))
    assert np.allclose(out.matrix, oracle, atol=1e-12)
    assert_density_matrix(out.matrix)


def test_apply_channel_rejects_register_above_cap():
    state = QuantumState(9, np.eye(2**9, dtype=complex) / 2**9)
    with pytest.raises(ValueError, match=r"register size 9 outside \[1, 8\]"):
        apply_channel(depolarizing_channel(0.1), state, targets=(0,))


def test_apply_channel_matches_kron_oracle_for_many_channels():
    # 276 distinct channels in a row on one state: every result must match
    # the kron oracle of its own channel, with nothing kept from the last
    rng = np.random.default_rng(5)
    state = random_pure_state(rng, 2)
    for k in range(276):
        channel = ChannelModel(ginibre_kraus(rng)) if k % 2 else depolarizing_channel(k / 400)
        lifted = [np.kron(I2, m) for m in channel.kraus_ops]
        oracle = sum(m @ state.matrix @ m.conj().T for m in lifted)
        out = apply_channel(channel, state, targets=(1,))
        assert np.allclose(out.matrix, oracle, atol=1e-12)


def test_depolarizing_half_of_bell_gives_product():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    out = apply_channel(depolarizing_channel(1.0), QuantumState(2, bell), targets=(0,))
    assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-10)


def test_apply_channel_dimension_checks():
    with pytest.raises(ValueError):
        apply_channel(depolarizing_channel(0.1), QuantumState(2, basis_state("00")), targets=(0, 0))
    with pytest.raises(IndexError):
        apply_channel(depolarizing_channel(0.1), QuantumState(2, basis_state("00")), targets=(4,))


# -- serial composition -------------------------------------------------------


def test_identity_compose_keeps_action():
    rng = np.random.default_rng(4)
    channel = ChannelModel(ginibre_kraus(rng))
    composed = compose_serial(channel, _identity())
    for probe in PROBES:
        assert np.allclose(_act(composed, probe), _act(channel, probe), atol=1e-12)


def test_fully_depolarizing_absorbs_composition():
    composed = compose_serial(depolarizing_channel(0.3), depolarizing_channel(1.0))
    for probe in PROBES:
        assert np.allclose(_act(composed, probe), I2 / 2, atol=1e-12)


def test_serial_depolarizing_parameter_rule():
    # dep(p1) then dep(p2) acts as dep(p1 + p2 - p1*p2)
    p1, p2 = 0.3, 0.5
    composed = compose_serial(depolarizing_channel(p1), depolarizing_channel(p2))
    assert len(composed.kraus_ops) == 16
    effective = depolarizing_channel(p1 + p2 - p1 * p2)
    for probe in PROBES:
        assert np.allclose(_act(composed, probe), _act(effective, probe), atol=1e-12)


def test_compose_serial_dimension_mismatch():
    with pytest.raises(ValueError):
        compose_serial(depolarizing_channel(0.1), _identity(2))


# -- quantum switch -----------------------------------------------------------


def test_switch_with_definite_control_reduces_to_serial():
    rng = np.random.default_rng(5)
    c1, c2 = ChannelModel(ginibre_kraus(rng)), ChannelModel(ginibre_kraus(rng))
    for control_bits, serial in (("0", compose_serial(c1, c2)), ("1", compose_serial(c2, c1))):
        switch = quantum_switch(c1, c2)
        for probe in PROBES:
            control = basis_state(control_bits)
            joint_out = _act(switch, np.kron(probe, control))
            traced = joint_out[0::2, 0::2] + joint_out[1::2, 1::2]
            assert np.allclose(traced, _act(serial, probe), atol=1e-10)


def test_switch_joint_completeness_and_lift():
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0))
    total = sum(k.conj().T @ k for k in switch.kraus_ops)
    assert np.allclose(total, np.eye(4), atol=1e-10)


def test_switch_rejects_non_qubit_channels():
    with pytest.raises(ValueError, match="switch requires single-qubit channels"):
        quantum_switch(_identity(2), _identity(2))


def _switch_pairs():
    rng = np.random.default_rng(17)
    pairs = [(depolarizing_channel(1.0), depolarizing_channel(0.3))]
    for n_first, n_second in ((1, 1), (1, 4), (2, 3), (4, 4)):
        first = ChannelModel(ginibre_kraus(rng, n_first))
        pairs.append((first, ChannelModel(ginibre_kraus(rng, n_second))))
    return pairs


def test_switch_kraus_ops_equal_kron_formula():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    for first, second in _switch_pairs():
        oracle = [
            np.kron(ki @ kj, p0) + np.kron(kj @ ki, p1)
            for ki in second.kraus_ops
            for kj in first.kraus_ops
        ]
        ops = quantum_switch(first, second).kraus_ops
        assert len(ops) == len(oracle)
        for op, expected in zip(ops, oracle):
            assert np.array_equal(op, expected)


def _kron_switch_outputs(first, second):
    """Flagged switch outputs for inputs |0> and |1>: the 16-operator
    switch applied to system (x) |+>, then the control measured through
    np.kron projectors and its outcome kept as a block index."""
    switch = quantum_switch(first, second)
    outputs = []
    for p in (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)):
        joint = _act(switch, np.kron(p, PLUS))
        flagged = np.zeros((4, 4), dtype=complex)
        for m in range(2):
            v = PLUS_MINUS[:, m]
            proj = np.kron(I2, np.outer(v, v.conj()))
            block = np.einsum("abcb->ac", (proj @ joint @ proj).reshape(2, 2, 2, 2))
            flagged[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] = block
        outputs.append(flagged)
    return outputs


def test_switch_holevo_equals_kron_measurement_path():
    for first, second in _switch_pairs():
        oracle = _holevo_oracle(_kron_switch_outputs(first, second))
        assert abs(phy_effective_rate(first, second) - oracle) <= 1e-12


def test_switch_rate_does_not_depend_on_the_kraus_sets():
    # Each channel is also written with another Kraus set, of one operator
    # more, and with the minimal set rebuilt through its Choi matrix; the
    # kron path on the original sets is the oracle.
    rng = np.random.default_rng(41)
    damping = ChannelModel(amplitude_damping_kraus(0.6))
    pairs = _switch_pairs() + [(damping, _unitary_channel(rng))]
    pairs += [
        (ChannelModel(random_kraus(rng, 2)), ChannelModel(random_kraus(rng, 3))) for _ in range(5)
    ]
    for first, second in pairs:
        oracle = _holevo_oracle(_kron_switch_outputs(first, second))
        for a, b in (
            (first, _unitarily_mixed(second, rng)),
            (_unitarily_mixed(first, rng), second),
            (reduce_kraus(first), reduce_kraus(second)),
        ):
            assert abs(phy_effective_rate(a, b) - oracle) <= 1e-12


def test_switch_map_equals_serial_plus_cross_reference():
    # The constant map against the two-term formula it replaced, on PTMs of
    # random CPTP channels and of depolarizing and damping channels.
    rng = np.random.default_rng(47)
    channels = [ChannelModel(ginibre_kraus(rng, n)) for n in (1, 2, 3, 4) for _ in range(10)]
    channels += [ChannelModel(random_kraus(rng, n)) for n in (1, 2, 3, 4) for _ in range(5)]
    channels += [depolarizing_channel(p) for p in (0.0, 0.3, 1.0)]
    channels += [ChannelModel(amplitude_damping_kraus(0.6))]
    worst_block = worst_rate = 0.0
    for first in channels:
        for second in channels[::3]:
            r1, r2 = first.ptm, second.ptm
            reference = switch_blocks_reference(r1, r2)
            blocks = (_SWITCH_BLOCKS @ np.multiply.outer(r2, r1).reshape(-1)).reshape(2, 4, 2)
            worst_block = max(worst_block, float(np.max(np.abs(blocks - reference))))
            rate = switch_holevo_from_ptms(r1, r2)
            worst_rate = max(worst_rate, abs(rate - _pauli_holevo(reference.tolist())))
    assert worst_block <= 1e-15
    assert worst_rate <= 1e-14


def test_switch_of_depolarizing_outputs_are_control_correlated():
    # oracle: the 13-operator joint Kraus set built from scratch
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0))
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
    impl_out = _act(switch, joint_in)
    assert np.allclose(impl_out, oracle_out, atol=1e-12)
    # output is not a product of its marginals
    sys_marg = oracle_out[0::2, 0::2] + oracle_out[1::2, 1::2]
    ctl_marg = oracle_out[:2, :2] + oracle_out[2:, 2:]
    assert np.max(np.abs(oracle_out - np.kron(sys_marg, ctl_marg))) > 0.01


# -- Holevo information -------------------------------------------------------


def test_holevo_identity_channel_is_one_bit():
    assert holevo_information(_identity()) == pytest.approx(1.0, abs=1e-9)


def test_holevo_fully_depolarizing_is_zero():
    assert holevo_information(depolarizing_channel(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_holevo_matches_analytic_depolarizing_curve():
    for p in (0.2, 0.5, 0.8):
        chi = holevo_information(depolarizing_channel(p))
        assert chi == pytest.approx(dep_holevo(p), abs=1e-9)


def _oracle_channels():
    rng = np.random.default_rng(23)
    channels = [ChannelModel(random_kraus(rng, n)) for n in (1, 2, 3, 4) for _ in range(5)]
    channels += [ChannelModel(amplitude_damping_kraus(g)) for g in (0.0, 0.3, 0.9, 1.0)]
    channels += [depolarizing_channel(p) for p in (0.0, 0.25, 0.7, 1.0)]
    channels += [_unitary_channel(rng) for _ in range(3)] + [ChannelModel((PLUS_MINUS,))]
    return channels


def test_closed_form_holevo_equals_eigvalsh_holevo():
    for channel in _oracle_channels():
        assert abs(holevo_information(channel) - _holevo_oracle(_channel_outputs(channel))) <= 1e-12


def test_ptm_matches_pauli_traces_and_is_cached_read_only():
    # A shared depolarizing channel may hold its ptm from an earlier test.
    depolarizing_channel.cache_clear()
    for channel in _oracle_channels():
        assert "ptm" not in vars(channel)  # not built at construction
        ptm = channel.ptm
        assert np.allclose(ptm, _oracle_ptm(channel), rtol=0.0, atol=1e-14)
        assert channel.ptm is ptm and not ptm.flags.writeable
    assert np.allclose(depolarizing_channel(0.4).ptm, np.diag([1, 0.6, 0.6, 0.6]), atol=1e-15)
    with pytest.raises(ValueError, match=NO_QUBIT_PTM):
        _identity(2).ptm


def test_holevo_is_the_ptm_rate_cached_read_only():
    rng = np.random.default_rng(37)
    for _ in range(50):
        channel = ChannelModel(random_kraus(rng, int(rng.integers(1, 5))))
        assert "holevo" not in vars(channel)  # not rated at construction
        chi = channel.holevo
        assert chi == _ptm_holevo(channel.ptm)
        assert vars(channel)["holevo"] is chi and holevo_information(channel) is chi
        with pytest.raises(AttributeError, match="cannot assign to field 'holevo'"):
            channel.holevo = 0.5
    assert channel.holevo is chi


def test_holevo_of_a_two_qubit_channel_raises_on_every_use():
    channel = _identity(2)
    for _ in range(2):
        with pytest.raises(ValueError, match=NO_QUBIT_PTM):
            channel.holevo
    assert "holevo" not in vars(channel) and "ptm" not in vars(channel)


def test_routing_runs_rate_each_channel_instance_once(tmp_path, monkeypatch):
    # switch_activation rates both channels of each of its cells, and each
    # routing plan rates every link; the instances depolarizing_channel
    # shares by p recur across cells, plans and configs, and each must reach
    # the rating kernel once.  Every binding of holevo_information records
    # the channels it is asked to rate.
    depolarizing_channel.cache_clear()
    kernel = qnetsim.channels._ptm_holevo
    rate = qnetsim.channels.holevo_information
    kernel_args, rated = [], []

    def count(ptm):
        kernel_args.append(ptm)
        return kernel(ptm)

    def record(channel):
        rated.append(channel)
        return rate(channel)

    monkeypatch.setattr(qnetsim.channels, "_ptm_holevo", count)
    for module in [m for n, m in sys.modules.items() if n.startswith("qnetsim")]:
        if vars(module).get("holevo_information") is rate:
            monkeypatch.setattr(module, "holevo_information", record)
    seed = load_benchmark_module("workloads").HELD_OUT_SEED
    path = tmp_path / "config.yaml"
    for name, text in run_configs([seed]):
        if name == "configs/switch_activation" or name.startswith("routing_grid/"):
            path.write_text(text)
            rows, aborted = run_experiment(load_config(path))
            assert aborted == 0 and rows, name
    channels = list({id(c): c for c in rated}.values())
    assert len(rated) > 2 * len(channels)
    assert [sum(arg is c.ptm for arg in kernel_args) for c in channels] == [1] * len(channels)


def test_ptm_of_serial_composition_is_the_matrix_product():
    rng = np.random.default_rng(31)
    for _ in range(20):
        first = ChannelModel(random_kraus(rng, int(rng.integers(1, 5))))
        second = ChannelModel(random_kraus(rng, int(rng.integers(1, 5))))
        composed = compose_serial(first, second)
        assert np.allclose(composed.ptm, second.ptm @ first.ptm, rtol=0.0, atol=1e-13)


# -- rating kernel: guards and accuracy at the boundaries ----------------------


def _block_outputs(blocks):
    """Block-diagonal output matrices for inputs 0 and 1 of Pauli-vector
    blocks ``blocks[b][m][s]``, each block ``sum_m c_m P_m / 2``."""
    paulis = (I2, X, Y, Z)
    outputs = []
    for s in (0, 1):
        out = np.zeros((2 * len(blocks), 2 * len(blocks)), dtype=complex)
        for b, rows in enumerate(blocks):
            out[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = sum(
                row[s] * p / 2 for row, p in zip(rows, paulis)
            )
        outputs.append(out)
    return outputs


def test_ptm_holevo_rejects_an_output_outside_the_bloch_ball():
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        _ptm_holevo(np.diag([1.0, 1.1, 1.1, 1.1]))


def test_switch_rate_rejects_a_negative_output_eigenvalue():
    with pytest.raises(ValueError, match=r"below -1e-10$"):
        switch_holevo_from_ptms(np.diag([1.0, 2.0, 2.0, 2.0]), np.eye(4))


# Crafted unnormalised blocks ``[m][s]`` (the kernel takes any nested
# sequence of floats).  Input 0 has spectrum (1/2, 1/2), input 1 (3/2, 3/2)
# clipped to 1, and their mean (1, 1): chi = 0 - 1/2 - 0.
NEGATIVE_CHI_BLOCKS = [[[1.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
# Three blocks, each pure and opposite for the two inputs: the mean has six
# eigenvalues 1/2, so chi = 3 bits on a dimension of 6.
OVERFULL_CHI_BLOCKS = [[[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -1.0]]] * 3


def test_holevo_kernel_rejects_negative_chi():
    with pytest.raises(ArithmeticError, match="negative beyond tolerance"):
        _pauli_holevo(np.array(NEGATIVE_CHI_BLOCKS))


def test_holevo_kernel_rejects_chi_above_log2_dim():
    with pytest.raises(ArithmeticError, match=r"exceeds log2\(6\)$"):
        _pauli_holevo(np.array(OVERFULL_CHI_BLOCKS))


def test_rates_of_pure_outputs_match_eigvalsh_oracles():
    # eigenvalues exactly 0 and 1: the identity, and amplitude damping at
    # gamma = 1, which sends both inputs to |0>
    identity, damping = _identity(), ChannelModel(amplitude_damping_kraus(1.0))
    assert holevo_information(identity) == 1.0
    assert holevo_information(damping) == 0.0
    for first, second in ((identity, identity), (damping, damping), (identity, damping)):
        for channel in (first, second):
            oracle = _holevo_oracle(_channel_outputs(channel))
            assert abs(holevo_information(channel) - oracle) <= 1e-12
        oracle = _holevo_oracle(_kron_switch_outputs(first, second))
        assert abs(phy_effective_rate(first, second) - oracle) <= 1e-12


@pytest.mark.parametrize("gamma", [1e-12 - 1e-13, 1e-12 + 1e-13])
def test_rates_with_an_eigenvalue_at_the_floor_match_eigvalsh_oracles(gamma):
    # input |1> leaves diag(gamma, 1 - gamma); counting gamma or not moves
    # the rate by about 2e-11, so a rule that puts it on the wrong side of
    # the floor fails here
    damping = ChannelModel(amplitude_damping_kraus(gamma))
    oracle = _holevo_oracle(_channel_outputs(damping))
    assert abs(holevo_information(damping) - oracle) <= 1e-12
    serial = bottleneck_check(damping, _identity()).chi_serial
    assert abs(serial - oracle) <= 1e-12
    for second in (_identity(), damping):
        oracle = _holevo_oracle(_kron_switch_outputs(damping, second))
        assert abs(phy_effective_rate(damping, second) - oracle) <= 1e-12


def test_holevo_kernel_clips_rounding_negatives():
    # block + has c_0 = 0.1 and |c_z| one ulp above it, so its lower
    # eigenvalue rounds to about -7e-18; block - is pure with weight 0.9
    above = math.nextafter(0.1, 1.0)
    assert -1e-17 < (0.1 - above) / 2 < 0.0
    blocks = [
        [[0.1, 0.1], [0.0, 0.0], [0.0, 0.0], [above, -above]],
        [[0.9, 0.9], [0.0, 0.0], [0.9, 0.0], [0.0, 0.9]],
    ]
    oracle = _holevo_oracle(_block_outputs(blocks))
    assert abs(_pauli_holevo(np.array(blocks)) - oracle) <= 1e-12


def test_switch_of_unitaries_matches_kron_oracle():
    # every flagged block is rank one, so its lower eigenvalue is rounding
    # dust of either sign
    rng = np.random.default_rng(43)
    for _ in range(20):
        first, second = _unitary_channel(rng), _unitary_channel(rng)
        oracle = _holevo_oracle(_kron_switch_outputs(first, second))
        assert abs(phy_effective_rate(first, second) - oracle) <= 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_switch_with_a_fully_depolarizing_channel_matches_kron_oracle(p):
    first, second = depolarizing_channel(1.0), depolarizing_channel(p)
    for a, b in ((first, second), (second, first)):
        oracle = _holevo_oracle(_kron_switch_outputs(a, b))
        assert abs(phy_effective_rate(a, b) - oracle) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_first=st.integers(1, 4),
    n_second=st.integers(1, 4),
)
def test_rates_of_random_channel_pairs_match_eigvalsh_oracles(seed, n_first, n_second):
    rng = np.random.default_rng(seed)
    first = ChannelModel(random_kraus(rng, n_first))
    second = ChannelModel(random_kraus(rng, n_second))
    report = bottleneck_check(first, second)
    for chi, channel in (
        (report.chi_first, first),
        (report.chi_second, second),
        (report.chi_serial, compose_serial(first, second)),
    ):
        assert abs(chi - _holevo_oracle(_channel_outputs(channel))) <= 1e-12
    oracle = _holevo_oracle(_kron_switch_outputs(first, second))
    assert abs(phy_effective_rate(first, second) - oracle) <= 1e-12


def test_switch_activation_against_brute_force_oracle():
    oracle = switch_activation_oracle()
    assert abs(oracle - SWITCH_ACTIVATION_GOLDEN) < 1e-9
    chi = phy_effective_rate(depolarizing_channel(1.0), depolarizing_channel(1.0))
    assert abs(chi - oracle) < 1e-6
    assert chi > 0.02


def test_switch_with_traced_control_stays_zero():
    # discarding the control kills the activation
    switch = quantum_switch(depolarizing_channel(1.0), depolarizing_channel(1.0))
    outputs = []
    for rho_sys in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        joint = np.kron(rho_sys.astype(complex), PLUS)
        out = sum(k @ joint @ k.conj().T for k in switch.kraus_ops)
        outputs.append(out[0::2, 0::2] + out[1::2, 1::2])
    avg = 0.5 * outputs[0] + 0.5 * outputs[1]
    chi = entropy_bits(avg) - 0.5 * entropy_bits(outputs[0]) - 0.5 * entropy_bits(outputs[1])
    assert chi == pytest.approx(0.0, abs=1e-9)


# -- link rates -----------------------------------------------------------------


def test_phy_rate_of_one_link_is_its_holevo_information():
    rng = np.random.default_rng(11)
    for channel in (_identity(), depolarizing_channel(0.4), ChannelModel(ginibre_kraus(rng))):
        assert phy_effective_rate(channel) == holevo_information(channel)
    with pytest.raises(ValueError, match=NO_QUBIT_PTM):
        phy_effective_rate(_identity(2))
    with pytest.raises(ValueError, match=NO_QUBIT_PTM):
        phy_effective_rate(depolarizing_channel(0.4), _identity(2))


def test_phy_rate_of_two_fully_depolarizing_links_is_switch_activation():
    oracle = switch_activation_oracle()
    rate = phy_effective_rate(depolarizing_channel(1.0), depolarizing_channel(1.0))
    assert abs(oracle - SWITCH_ACTIVATION_GOLDEN) < 1e-9
    assert abs(rate - oracle) < 1e-6


def test_phy_switch_rate_is_symmetric_in_link_order():
    rng = np.random.default_rng(13)
    for _ in range(200):
        first, second = ChannelModel(ginibre_kraus(rng)), ChannelModel(ginibre_kraus(rng))
        forward = phy_effective_rate(first, second)
        assert abs(forward - phy_effective_rate(second, first)) < 1e-12


# -- bottleneck ---------------------------------------------------------------


def test_bottleneck_identity_pair():
    report = bottleneck_check(_identity(), _identity())
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
    composed = compose_serial(ChannelModel(ginibre_kraus(rng)), ChannelModel(ginibre_kraus(rng)))
    total = sum(k.conj().T @ k for k in composed.kraus_ops)
    assert np.allclose(total, I2, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_holevo_bounded_by_output_dimension(seed):
    rng = np.random.default_rng(seed)
    assert -1e-9 <= holevo_information(ChannelModel(ginibre_kraus(rng))) <= 1.0 + 1e-9


# -- Kraus reduction ----------------------------------------------------------


def test_reduce_kraus_shrinks_composed_depolarizing():
    composed = compose_serial(depolarizing_channel(0.3), depolarizing_channel(0.5))
    reduced = reduce_kraus(composed)
    assert len(reduced.kraus_ops) <= 4 < len(composed.kraus_ops)
    for probe in PROBES:
        assert np.allclose(_act(reduced, probe), _act(composed, probe), atol=1e-10)


def test_reduce_kraus_random_channel_action_preserved():
    rng = np.random.default_rng(17)
    first = ChannelModel(ginibre_kraus(rng, 4))
    channel = compose_serial(first, ChannelModel(ginibre_kraus(rng, 4)))
    reduced = reduce_kraus(channel)
    assert len(reduced.kraus_ops) <= 4
    for probe in PROBES:
        assert np.allclose(_act(reduced, probe), _act(channel, probe), atol=1e-10)


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
            assert np.allclose(_act(channel, probe), _act(oracle, probe), atol=1e-12)


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
        assert np.allclose(_act(channel, probe), _act(oracle, probe), atol=1e-12)
        assert np.allclose(_act(channel, probe), I2 / 2, atol=1e-12)


def test_channel_spec_rejects_unknown_type():
    with pytest.raises(ValueError):
        channel_from_spec({"type": "amplitude_damping", "gamma": 0.5})
