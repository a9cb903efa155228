"""Acceptance suite: one test per acceptance criterion.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them on success).  Expected values come from in-test oracles: explicit
matrix algebra, closed-form formulas, or exhaustive enumeration; never
from the code under test.
"""

import hashlib
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import stats

from qnetsim.channels import (
    bottleneck_check,
    compose_serial,
    depolarizing_channel,
    holevo_information,
    switch_holevo_information,
)
from qnetsim.config import load_config
from qnetsim.engine import EventEngine, EventKind, SignalingScope
from qnetsim.protocols import (
    SUPERDENSE_MESSAGES,
    Purpose,
    apply_correction,
    make_bell_pair,
    superdense_decode,
    superdense_distribution,
    superdense_encode,
    teleport,
    werner_pair,
)
from qnetsim.qstate import fidelity, random_pure_state
from qnetsim.runner import run_experiment
from qnetsim.services.mac import MacConfig, MacProtocol, run_mac_sim
from qnetsim.services.routing import (
    PlanMode,
    route_max_bottleneck,
    route_with_switch_merging,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
BENCHMARK_DIR = REPO_ROOT / "benchmark"

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _verdict(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    return line


def _bell(phase, parity):
    v = np.zeros(4, dtype=complex)
    v[parity] = 1 / math.sqrt(2)
    v[3 - parity] = (-1 if phase else 1) / math.sqrt(2)
    return np.outer(v, v.conj())


def _entropy_bits(matrix):
    evals = np.linalg.eigvalsh(matrix)
    evals = evals[evals > 1e-12]
    return float(-(evals * np.log2(evals)).sum())


# -- criterion 1: teleportation consumes one Bell pair and two bits -----------


def test_criterion_1_teleport_dual_resource():
    from qnetsim.engine import ClassicalLink, Topology
    from qnetsim.scenarios import SCENARIOS

    n_teleports = 1000
    seed = [20_260_814]
    topo = Topology(("alice", "bob"), (ClassicalLink("alice", "bob", 1),), ())

    started = time.perf_counter()
    cell = {"n_teleports": n_teleports, "werner_w": 1.0, "src": "alice", "dst": "bob"}
    result = SCENARIOS["teleport"](topo, cell)(seed)
    elapsed = time.perf_counter() - started
    m = dict(result.metrics)
    # One delivery record per teleport, each carrying its own message.
    deliveries = [
        detail for _, _, kind, detail in result.trace if kind is EventKind.CLASSICAL_DELIVER
    ]
    assert all(
        message.purpose is Purpose.TELEPORT and scope is SignalingScope.END_TO_END
        for message, scope in deliveries
    )
    e2e_bits = [len(message.bits) for message, _ in deliveries]

    # Oracle: the same draws through the per-trial density-matrix path.
    engine = EventEngine(topo, seed=seed)
    fidelities = []

    def step(eng, _event):
        payload = random_pure_state(eng.rng)
        message, destination = teleport(payload, make_bell_pair(("alice", "bob")), eng.rng)

        def on_deliver(delivered):
            fidelities.append(fidelity(apply_correction(destination, delivered), payload))

        eng.send_classical(message, ("alice", "bob"), SignalingScope.END_TO_END, on_deliver)

    for k in range(n_teleports):
        engine.schedule(k, EventKind.PROTOCOL_STEP, handler=step)
    engine.run_until(n_teleports + 10)
    oracle_bits = [e.bits for e in engine.ledger if e.scope is SignalingScope.END_TO_END]

    fidelity_ok = (
        m["teleports"] == n_teleports
        and abs(m["fidelity_min"] - 1.0) <= 1e-9
        and abs(m["fidelity_mean"] - 1.0) <= 1e-9
        and len(fidelities) == n_teleports
        and all(abs(f - 1.0) <= 1e-9 for f in fidelities)
        and abs(m["fidelity_min"] - min(fidelities)) <= 1e-9
    )
    ledger_ok = (
        len(e2e_bits) == n_teleports
        and set(e2e_bits) == {2}
        and result.bits_end_to_end == 2 * n_teleports
        and result.bits_host_to_host == 0
        and m["bits_per_teleport"] == 2.0
        and oracle_bits == e2e_bits
    )
    time_ok = elapsed < 10.0
    line = _verdict(
        1,
        "teleportation fidelity 1.0 and exactly 2 end-to-end bits each",
        fidelity_ok and ledger_ok and time_ok,
        f"min fidelity {m['fidelity_min']:.12f} (per-trial oracle {min(fidelities):.12f}), "
        f"bits per teleport {set(e2e_bits)}, {elapsed:.2f}s",
    )
    assert fidelity_ok and ledger_ok and time_ok, line


# -- criterion 2: superdense coding -------------------------------------------


def test_criterion_2_superdense_coding():
    rng = np.random.default_rng(2)
    ideal_ok = all(
        superdense_decode(superdense_encode(bits, make_bell_pair()), rng) == bits
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1))
    )

    w = 0.9
    per_message = 25_000
    encodings = {(0, 0): I2, (0, 1): X, (1, 0): Z, (1, 1): X @ Z}
    werner = w * _bell(0, 0) + (1 - w) * np.eye(4) / 4
    worst_gap = 0.0
    for bits, u in encodings.items():
        lifted = np.kron(u, I2)
        encoded = lifted @ werner @ lifted.conj().T
        born = float(np.real(np.trace(encoded @ _bell(*bits))))
        # Every trial decodes the same state, so all of a message's trials
        # are one draw from its exact outcome distribution.
        distribution = superdense_distribution(superdense_encode(bits, werner_pair(w)))
        ok_count = rng.multinomial(per_message, distribution)[SUPERDENSE_MESSAGES.index(bits)]
        worst_gap = max(worst_gap, abs(ok_count / per_message - born))
    noisy_ok = worst_gap < 0.01
    line = _verdict(
        2,
        "superdense round-trip and Werner-0.9 statistics",
        ideal_ok and noisy_ok,
        f"worst gap to Born oracle {worst_gap:.4f}",
    )
    assert ideal_ok and noisy_ok, line


# -- criterion 3: zero-capacity activation through the switch -----------------

SWITCH_ACTIVATION_GOLDEN = 0.048794940695398914


def _switch_activation_oracle():
    """Independent evaluation from the explicit 13-operator Kraus set."""
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
    flagged = []
    for rho_sys in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        joint = np.kron(rho_sys.astype(complex), np.full((2, 2), 0.5))
        out = sum(k @ joint @ k.conj().T for k in ops)
        conditional = np.zeros((8, 8), dtype=complex)
        for b, v in enumerate((plus, minus)):
            meas = np.kron(I2, np.outer(v, v.conj()))
            block = meas @ out @ meas.conj().T
            conditional[4 * b : 4 * b + 2, 4 * b : 4 * b + 2] = (
                block[0::2, 0::2] + block[1::2, 1::2]
            )
        flagged.append(conditional)
    avg = 0.5 * flagged[0] + 0.5 * flagged[1]
    return _entropy_bits(avg) - 0.5 * _entropy_bits(flagged[0]) - 0.5 * _entropy_bits(flagged[1])


def test_criterion_3_zero_capacity_activation():
    dep1 = depolarizing_channel(1.0)
    chi_direct = holevo_information(dep1)
    chi_serial = holevo_information(compose_serial(dep1, dep1))
    zeros_ok = abs(chi_direct) <= 1e-9 and abs(chi_serial) <= 1e-9

    oracle = _switch_activation_oracle()
    oracle_ok = abs(oracle - SWITCH_ACTIVATION_GOLDEN) < 1e-9
    chi_switch = switch_holevo_information(dep1, dep1)
    switch_ok = chi_switch > 0.02 and abs(chi_switch - oracle) < 1e-6

    grid_ok = True
    for p1 in np.arange(0.1, 0.95, 0.1):
        for p2 in np.arange(0.1, 0.95, 0.1):
            report = bottleneck_check(
                depolarizing_channel(round(float(p1), 1)),
                depolarizing_channel(round(float(p2), 1)),
            )
            grid_ok = grid_ok and report.holds

    ok = zeros_ok and oracle_ok and switch_ok and grid_ok
    line = _verdict(
        3,
        "switch activates two zero-capacity channels, bottleneck holds for definite orders",
        ok,
        f"chi_switch {chi_switch:.12f} vs oracle {oracle:.12f}, 81-point grid {'holds' if grid_ok else 'violated'}",
    )
    assert ok, line


# -- criterion 4: W-state channel access --------------------------------------


def test_criterion_4_w_state_channel_access():
    saturated = MacConfig(
        n_nodes=4,
        protocol=MacProtocol.W_STATE_ACCESS,
        slots=1_000_000,
        offered_load=1.0,
        w_refresh_cost=0,
    )
    metrics = run_mac_sim(saturated, seed=4)
    assert metrics.collisions == 0, "W-state access produced a collision"
    chi2 = stats.chisquare(metrics.per_node_successes)
    uniform_ok = chi2.pvalue >= 0.01
    ledger_ok = metrics.contention_signaling_bits == 0 and metrics.privacy_ok

    small = MacConfig(
        n_nodes=4,
        protocol=MacProtocol.W_STATE_ACCESS,
        slots=100_000,
        offered_load=1.0,
    )
    base = run_mac_sim(small, seed=44)
    invariant_ok = all(
        run_mac_sim(
            MacConfig(
                n_nodes=4,
                protocol=MacProtocol.W_STATE_ACCESS,
                slots=100_000,
                offered_load=1.0,
                hidden_pairs=pairs,
            ),
            seed=44,
        )
        == base
        for pairs in (((0, 1),), ((0, 1), (2, 3)), ((1, 3),))
    )

    contention = dict(
        n_nodes=4,
        protocol=MacProtocol.SLOTTED_CONTENTION,
        slots=50_000,
        offered_load=1.0,
        carrier_sensing=True,
    )
    baseline = run_mac_sim(MacConfig(**contention), seed=45)
    hidden = run_mac_sim(MacConfig(**contention, hidden_pairs=((0, 1),)), seed=45)
    baseline_ok = hidden.collision_rate > baseline.collision_rate

    aloha = run_mac_sim(
        MacConfig(
            n_nodes=100,
            protocol=MacProtocol.SLOTTED_CONTENTION,
            slots=100_000,
            offered_load=0.01,
            backoff_window=0,
            carrier_sensing=False,
        ),
        seed=46,
    )
    aloha_ok = abs(aloha.throughput - 1.0 * math.exp(-1.0)) <= 0.01

    ok = uniform_ok and ledger_ok and invariant_ok and baseline_ok and aloha_ok
    line = _verdict(
        4,
        "collision-free signaling-free W access, fragile contention baseline",
        ok,
        f"zero collisions over 10^6 slots, chi2 p={chi2.pvalue:.3f}, "
        f"ALOHA peak {aloha.throughput:.4f}",
    )
    assert ok, line


# -- criterion 5: multipath quantum network service ----------------------------


def _dep_rate(p):
    x = p / 2.0
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    return 1.0 + x * math.log2(x) + (1 - x) * math.log2(1 - x)


def _enumeration_oracle(link_params, src, dst):
    neighbors = {}
    for a, b in link_params:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    for adj in neighbors.values():
        adj.sort()
    best_rate, best_path = 0.0, ()
    stack = [(src,)]
    while stack:
        path = stack.pop()
        if path[-1] == dst:
            rate = min(
                _dep_rate(link_params.get((a, b), link_params.get((b, a))))
                for a, b in zip(path, path[1:])
            )
            if rate > 1e-9 and (
                rate > best_rate + 1e-12
                or (abs(rate - best_rate) <= 1e-12 and (not best_path or path < best_path))
            ):
                best_rate, best_path = rate, path
            continue
        for other in neighbors.get(path[-1], ()):
            if other not in path:
                stack.append(path + (other,))
    return best_rate, best_path


def _random_topology(rng):
    from qnetsim.engine import QuantumLink, Topology

    n = int(rng.integers(3, 9))
    nodes = [f"n{i}" for i in range(n)]
    link_params = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        a, b = sorted((nodes[j], nodes[i]))
        link_params[(a, b)] = _draw_noise(rng)
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = sorted((nodes[int(i)], nodes[int(j)]))
        if (a, b) not in link_params:
            link_params[(a, b)] = _draw_noise(rng)
    links = tuple(
        QuantumLink(a, b, depolarizing_channel(p), 1.0, 1)
        for (a, b), p in sorted(link_params.items())
    )
    return Topology(tuple(nodes), (), links), link_params, nodes[0], nodes[-1]


def _draw_noise(rng):
    if rng.random() < 0.35:
        return 1.0
    return float(np.round(rng.uniform(0.0, 0.9), 3))


def test_criterion_5_multipath_service():
    started = time.perf_counter()

    config = load_config(CONFIG_DIR / "multipath_routing.yaml")
    assert config.topology is not None
    src, dst = str(config.params["src"]), str(config.params["dst"])
    single = route_max_bottleneck(config.topology, src, dst)
    merged = route_with_switch_merging(config.topology, src, dst, single)
    canned_ok = (
        single.unreachable
        and single.effective_rate == 0.0
        and merged.mode is PlanMode.SUPERPOSED_PAIR
        and merged.effective_rate > 0.02
    )

    rng = np.random.default_rng(5)
    dominance_ok = True
    enumeration_ok = True
    for _ in range(200):
        topo, link_params, g_src, g_dst = _random_topology(rng)
        plan = route_max_bottleneck(topo, g_src, g_dst)
        merged_plan = route_with_switch_merging(topo, g_src, g_dst, plan)
        oracle_rate, oracle_path = _enumeration_oracle(link_params, g_src, g_dst)
        if abs(plan.effective_rate - oracle_rate) > 1e-9:
            enumeration_ok = False
        elif oracle_path and plan.paths[0] != oracle_path:
            enumeration_ok = False
        if merged_plan.effective_rate < plan.effective_rate - 1e-9:
            dominance_ok = False

    elapsed = time.perf_counter() - started
    time_ok = elapsed < 60.0
    ok = canned_ok and dominance_ok and enumeration_ok and time_ok
    line = _verdict(
        5,
        "blocked topology activated by merging; dominance and enumeration on 200 graphs",
        ok,
        f"canned merged rate {merged.effective_rate:.4f} vs single {single.effective_rate}, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


# -- criterion 6: determinism --------------------------------------------------


def _digest_run(config_path, out_dir):
    config = load_config(config_path)
    run_experiment(config, out_dir=out_dir, trace=True)
    digests = {}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_6_determinism(tmp_path, monkeypatch):
    # The benchmark's closed-form output checker, loaded unchanged from its
    # file; it does ``from workloads import cell_count``.
    monkeypatch.setitem(sys.modules, "workloads", _load_benchmark_module("workloads"))
    oracles = _load_benchmark_module("oracles")
    mismatches = []
    cells = 0
    for config_path in sorted(CONFIG_DIR.glob("*.yaml")):
        first = _digest_run(config_path, tmp_path / f"{config_path.stem}_a")
        second = _digest_run(config_path, tmp_path / f"{config_path.stem}_b")
        if first != second:
            mismatches.append(config_path.name)
        if "metrics.csv" not in first:
            mismatches.append(f"{config_path.name}: no metrics.csv")
            continue
        spec = yaml.safe_load(config_path.read_text())
        csv_text = (tmp_path / f"{config_path.stem}_a" / "metrics.csv").read_text()
        attempted, problems = oracles.check_csv(spec, csv_text)
        cells += attempted
        mismatches.extend(problems)
    ok = not mismatches
    line = _verdict(
        6,
        "byte-identical CSV and trace hashes on rerun of every canned config, "
        "every cell within the benchmark's closed-form oracles",
        ok,
        f"all six scenarios, {cells} cells" if ok else f"mismatches: {mismatches}",
    )
    assert ok, line
