"""Acceptance suite: one test per acceptance criterion.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them on success).  Expected values come from in-test oracles: explicit
matrix algebra, closed-form formulas, or exhaustive enumeration; never
from the code under test.
"""

import csv
import hashlib
import io
import math
import sys
import time

import numpy as np
import pytest
import yaml
from scipy import stats

from qnetsim.channels import (
    bottleneck_check,
    compose_serial,
    depolarizing_channel,
    holevo_information,
)
from qnetsim.config import load_config
from qnetsim.engine import EventEngine, EventKind, SignalingScope
from qnetsim.protocols import (
    SUPERDENSE_MESSAGES,
    CorrectionMessage,
    Purpose,
    superdense_decode,
    superdense_distribution,
    superdense_encode,
)
from qnetsim.runner import run_experiment
from qnetsim.services.mac import MacConfig, MacProtocol, run_mac_sim
from qnetsim.services.phy import phy_effective_rate
from qnetsim.services.routing import (
    PlanMode,
    route_max_bottleneck,
    route_with_switch_merging,
    simple_paths,
)
from reference import (
    CONFIG_DIR,
    I2,
    SWITCH_ACTIVATION_GOLDEN,
    X,
    Z,
    bell_matrix,
    corrected,
    haar_ket,
    hand_built_correlations,
    kraus_from_spec,
    load_benchmark_module,
    oracle_best,
    overlap,
    random_link_params,
    switch_activation_oracle,
    swap_circuit_problems,
    teleport_circuit,
)


def _verdict(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    return line


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
    assert all(message.purpose is Purpose.TELEPORT for message in deliveries)
    e2e_bits = [len(message.bits) for message in deliveries]

    # Oracle: the same draws through the hand-built teleport circuit.
    engine = EventEngine(seed=seed)
    fidelities = []

    def step(eng, _label):
        ket = haar_ket(eng.rng)
        payload = np.outer(ket, ket.conj())
        bits, destination = teleport_circuit(payload, bell_matrix(0, 0), eng.rng)
        message = CorrectionMessage(bits, "alice", "bob", Purpose.TELEPORT)

        def on_deliver(_eng, delivered):
            fidelities.append(overlap(corrected(destination, delivered.bits), payload))

        eng.send_classical(message, topo.shortest_classical_route("alice", "bob"), on_deliver)

    for k in range(n_teleports):
        engine.schedule(k, EventKind.PROTOCOL_STEP, f"teleport {k}", step)
    engine.run_until()
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
    ideal = hand_built_correlations(bell_matrix(0, 0))
    ideal_ok = all(
        superdense_decode(superdense_encode(bits, ideal), rng) == bits
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1))
    )

    w = 0.9
    per_message = 25_000
    encodings = {(0, 0): I2, (0, 1): X, (1, 0): Z, (1, 1): X @ Z}
    werner = w * bell_matrix(0, 0) + (1 - w) * np.eye(4) / 4
    worst_gap = 0.0
    for bits, u in encodings.items():
        lifted = np.kron(u, I2)
        encoded = lifted @ werner @ lifted.conj().T
        born = float(np.real(np.trace(encoded @ bell_matrix(*bits))))
        # Every trial decodes the same state, so all of a message's trials
        # are one draw from its exact outcome distribution.
        pair = hand_built_correlations(werner)
        distribution = superdense_distribution(superdense_encode(bits, pair))
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

def test_criterion_3_zero_capacity_activation():
    dep1 = depolarizing_channel(1.0)
    chi_direct = holevo_information(dep1)
    chi_serial = holevo_information(compose_serial(dep1, dep1))
    zeros_ok = abs(chi_direct) <= 1e-9 and abs(chi_serial) <= 1e-9

    oracle = switch_activation_oracle()
    oracle_ok = abs(oracle - SWITCH_ACTIVATION_GOLDEN) < 1e-9
    chi_switch = phy_effective_rate(dep1, dep1)
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


def _random_topology(rng):
    from qnetsim.engine import QuantumLink, Topology

    link_params = random_link_params(rng)
    nodes = sorted({n for pair in link_params for n in pair})
    links = tuple(
        QuantumLink(a, b, depolarizing_channel(p), 1.0, 1)
        for (a, b), p in sorted(link_params.items())
    )
    return Topology(tuple(nodes), (), links), link_params, nodes[0], nodes[-1]


def test_criterion_5_multipath_service():
    started = time.perf_counter()

    config = load_config(CONFIG_DIR / "multipath_routing.yaml")
    assert config.topology is not None
    src, dst = str(config.params["src"]), str(config.params["dst"])
    single = route_max_bottleneck(config.topology, src, dst)
    merged = route_with_switch_merging(
        config.topology, simple_paths(config.topology, src, dst), single
    )
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
        merged_plan = route_with_switch_merging(topo, simple_paths(topo, g_src, g_dst), plan)
        oracle_rate, oracle_path = oracle_best(link_params, g_src, g_dst)
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


def _closed_form_check(oracles, spec, csv_text):
    """``oracles.check_csv``: ``(cells attempted, problems)``.  Its swap
    oracle reads a depolarizing ``p``, so a swap over ``kraus-list`` links
    is checked against the hand-built swap circuit instead."""
    links = spec.get("topology", {}).get("quantum_links", [])
    if spec["scenario"] != "swap" or links[0]["channel"]["type"] != "kraus-list":
        return oracles.check_csv(spec, csv_text)
    assert links[0]["channel"] == links[1]["channel"] and "sweep" not in spec
    kraus = kraus_from_spec(links[0]["channel"])
    cells = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        cells.setdefault((row["seed"], row["params"]), {})[row["metric"]] = row["value"]
    problems = [
        f"swap seed={seed} {label}: {problem}"
        for (seed, label), metrics in cells.items()
        for problem in swap_circuit_problems(metrics, kraus, spec["params"]["n_swaps"])
    ]
    problems += ["swap: cell missing from csv"] * (len(spec["seeds"]) - len(cells))
    return len(spec["seeds"]), problems


def test_criterion_6_determinism(tmp_path, monkeypatch):
    # The benchmark's closed-form output checker, loaded unchanged from its
    # file; it does ``from workloads import cell_count``.
    monkeypatch.setitem(sys.modules, "workloads", load_benchmark_module("workloads"))
    oracles = load_benchmark_module("oracles")
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
        attempted, problems = _closed_form_check(oracles, spec, csv_text)
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
