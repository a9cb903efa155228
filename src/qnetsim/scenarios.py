"""Scenarios: one ``prepare`` function each, and the registry of them.

``prepare(topology, cell)`` reads every parameter of one expanded cell
through a ``fields.Fields`` reader, raises ``ValueError`` for anything
``run`` would reject, before any random draw or engine event, and returns
the cell's ``run(rng_seed) -> ScenarioResult``.  Config validation
prepares each cell once and keeps its ``run``, which the runner calls
under every seed, so what validates is exactly what runs.  Routes, with
their latencies, and links are looked up once, in ``prepare``; the
event handlers keep only the engine wiring.  A ``multipath_routing``
cell enumerates its simple paths once, in ``prepare``, and every run
plans over that list.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .channels import bottleneck_check, depolarizing_channel
from .engine import EventEngine, EventKind, QuantumLink, Topology, TraceRecord
from .fields import Fields
from .protocols import (
    MAX_DRAW_COUNT,
    SUPERDENSE_MESSAGES,
    CorrectionMessage,
    Purpose,
    bell_pair_correlations,
    cumulative_weights,
    draw_bell_outcome,
    superdense_distribution,
    superdense_encode,
    swap_outcome_table,
    teleport_fidelity,
    teleport_table,
    teleport_weights,
)
from .qstate import SCALAR_ATOL, haar_bloch_vector
from .services.mac import MacConfig, MacProtocol, run_mac_sim
from .services.phy import phy_effective_rate
from .services.routing import (
    PlanMode,
    route_max_bottleneck,
    route_with_switch_merging,
    simple_paths,
)


class ScenarioResult(NamedTuple):
    metrics: list[tuple[str, Any]]
    bits_host_to_host: int = 0
    bits_end_to_end: int = 0
    # The engine's trace records, or trace lines for a scenario without
    # an engine.
    trace: tuple[TraceRecord | str, ...] = ()


Run = Callable[[list[int]], ScenarioResult]


def _werner_correlations(w: float) -> np.ndarray:
    """The Werner pair ``w phi+ + (1 - w) I/4``: phi+ with the depolarizing
    channel of Pauli transfer matrix ``diag(1, w, w, w)`` on one half."""
    return bell_pair_correlations(np.diag([1.0, w, w, w]), np.eye(4))


def _need_topology(topology: Topology | None, scenario: str, min_nodes: int) -> Topology:
    if topology is None or len(topology.nodes) < min_nodes:
        raise ValueError(f"scenario {scenario} requires a topology of at least {min_nodes} nodes")
    return topology


def _swap_link(topology: Topology, a_name: str, a: str, b_name: str, b: str) -> QuantumLink:
    link = topology.quantum_link(a, b)
    if link is None:
        raise ValueError(f"no quantum link between {a_name} {a!r} and {b_name} {b!r}")
    if link.gen_success_prob == 0.0:
        raise ValueError(f"quantum link {a}-{b} has gen_success_prob 0: it never makes a pair")
    # Below 2^-56 a geometric draw reaches NumPy's cap of 2^63 - 1 with probability over e^-128.
    if link.gen_success_prob < 2.0**-56:
        raise ValueError(
            f"quantum link {a}-{b} has gen_success_prob {link.gen_success_prob}, below 2^-56"
        )
    return link


def _prepare_teleport(topology: Topology | None, cell: dict) -> Run:
    topology = _need_topology(topology, "teleport", 2)
    params = Fields(cell)
    n_teleports = params.integer("n_teleports", low=1)
    werner_w = params.probability("werner_w", 1.0)
    src = params.node(topology.nodes, "src", topology.nodes[0])
    dst = params.node(topology.nodes, "dst", topology.nodes[-1])
    params.done()
    route = topology.shortest_classical_route(src, dst)
    if route is None:
        raise ValueError(f"no classical route from src {src!r} to dst {dst!r}")

    def run(rng_seed: list[int]) -> ScenarioResult:
        engine = EventEngine(topology, rng_seed)
        fidelities: list[float] = []
        # Every trial uses up a pair of the same state, so teleporting over
        # it is one branch table, built once per run; a trial reads its
        # payload's outcome weights and corrected fidelity off the table
        # as plain floats, with the draws teleport makes.
        table = teleport_table(_werner_correlations(werner_w)).tolist()
        messages = [CorrectionMessage(m, src, dst, Purpose.TELEPORT) for m in SUPERDENSE_MESSAGES]

        def teleport_step(eng: EventEngine, _label: str) -> None:
            r = haar_bloch_vector(eng.rng)
            weights = teleport_weights(table, r)
            message = messages[draw_bell_outcome(weights, cumulative_weights(weights), eng.rng)]
            # The destination corrects by the bits it is delivered.
            eng.send_classical(
                message,
                route,
                lambda delivered: fidelities.append(
                    teleport_fidelity(table[SUPERDENSE_MESSAGES.index(delivered.bits)], r)
                ),
            )

        for k in range(n_teleports):
            engine.schedule(k, EventKind.PROTOCOL_STEP, f"teleport {k}", teleport_step)
        result = engine.run_until()
        return ScenarioResult(
            metrics=[
                ("fidelity_mean", float(np.mean(fidelities))),
                ("fidelity_min", float(np.min(fidelities))),
                ("teleports", n_teleports),
                ("bits_per_teleport", result.bits_end_to_end / n_teleports),
            ],
            bits_host_to_host=result.bits_host_to_host,
            bits_end_to_end=result.bits_end_to_end,
            trace=result.trace,
        )

    return run


def _prepare_superdense(topology: Topology | None, cell: dict) -> Run:
    params = Fields(cell)
    n_trials = params.integer("n_trials", low=1)
    werner_w = params.probability("werner_w", 1.0)
    params.done()
    # Each message's trials are one binomial draw.
    if n_trials // len(SUPERDENSE_MESSAGES) > MAX_DRAW_COUNT:
        raise ValueError(f"n_trials must be at most 4 (2^63 - 1) + 3, got {n_trials}")
    # Decoding needs a Bell overlap above 0.5; a Werner pair's best is (1 + 3w) / 4.
    if (1.0 + 3.0 * werner_w) / 4.0 < 0.5 + SCALAR_ATOL:
        raise ValueError(f"werner_w {werner_w} must exceed 1/3 for superdense decoding")

    def run(rng_seed: list[int]) -> ScenarioResult:
        rng = np.random.default_rng(rng_seed)
        pair = _werner_correlations(werner_w)
        per_message = max(n_trials // len(SUPERDENSE_MESSAGES), 1)
        trials = per_message * len(SUPERDENSE_MESSAGES)
        metrics: list[tuple[str, Any]] = []
        total_ok = 0
        for index, message in enumerate(SUPERDENSE_MESSAGES):
            # Every trial of a message decodes the same state, so the
            # number decoded right is one binomial draw.
            distribution = superdense_distribution(superdense_encode(message, pair))
            ok = int(rng.binomial(per_message, distribution[index]))
            total_ok += ok
            metrics.append((f"success_rate_{message[0]}{message[1]}", ok / per_message))
        metrics.append(("success_rate_overall", total_ok / trials))
        metrics.append(("trials", trials))
        return ScenarioResult(metrics=metrics)

    return run


def _prepare_swap(topology: Topology | None, cell: dict) -> Run:
    topology = _need_topology(topology, "swap", 3)
    params = Fields(cell)
    n_swaps = params.integer("n_swaps", low=1)
    src = params.node(topology.nodes, "src", topology.nodes[0])
    mid = params.node(topology.nodes, "mid", topology.nodes[1])
    dst = params.node(topology.nodes, "dst", topology.nodes[2])
    params.done()
    left_link = _swap_link(topology, "src", src, "mid", mid)
    right_link = _swap_link(topology, "mid", mid, "dst", dst)
    route = topology.shortest_classical_route(mid, dst)
    if route is None:
        raise ValueError(f"no classical route from mid {mid!r} to dst {dst!r}")

    def run(rng_seed: list[int]) -> ScenarioResult:
        engine = EventEngine(topology, rng_seed)
        fidelities: list[float] = []
        outcome_counts = {m: 0 for m in SUPERDENSE_MESSAGES}
        # A stored pair does not decohere, so every swap splices the same
        # two pairs: each outcome's weight and corrected end-pair
        # fidelity, and the table its draws search, are built once per
        # run.  A link puts the same channel on both halves of a symmetric
        # Bell pair, so its pair is the same however a link is written.
        weights, end_fidelity = swap_outcome_table(
            left_link.pair_correlations, right_link.pair_correlations
        )
        cumulative = cumulative_weights(weights)
        messages = [CorrectionMessage(m, mid, dst, Purpose.SWAP) for m in SUPERDENSE_MESSAGES]

        def swap_step(eng: EventEngine, _label: str) -> None:
            message = messages[draw_bell_outcome(weights, cumulative, eng.rng)]
            outcome_counts[message.bits] += 1
            # The destination corrects by the bits it is delivered.
            eng.send_classical(
                message,
                route,
                lambda delivered: fidelities.append(
                    end_fidelity[SUPERDENSE_MESSAGES.index(delivered.bits)]
                ),
            )

        def attempt_step(eng: EventEngine, label: str) -> None:
            # Only the tick at which both links have succeeded matters, not
            # when each pair was made.
            left_attempts = eng.attempt_entanglement(left_link)
            right_attempts = eng.attempt_entanglement(right_link)
            ready = eng.now + max(
                (left_attempts - 1) * left_link.attempt_period,
                (right_attempts - 1) * right_link.attempt_period,
            )
            eng.schedule(ready, EventKind.PROTOCOL_STEP, label, swap_step)

        for k in range(n_swaps):
            engine.schedule(k, EventKind.ENTANGLEMENT_ATTEMPT, f"swap {k}", attempt_step)
        result = engine.run_until()
        metrics: list[tuple[str, Any]] = [
            ("fidelity_mean", float(np.mean(fidelities))),
            ("swaps", n_swaps),
            ("bits_per_swap", result.bits_end_to_end / n_swaps),
        ]
        for m, count in sorted(outcome_counts.items()):
            metrics.append((f"outcome_frac_{m[0]}{m[1]}", count / n_swaps))
        return ScenarioResult(
            metrics=metrics,
            bits_host_to_host=result.bits_host_to_host,
            bits_end_to_end=result.bits_end_to_end,
            trace=result.trace,
        )

    return run


def _prepare_switch_activation(topology: Topology | None, cell: dict) -> Run:
    params = Fields(cell)
    p1 = params.probability("p1")
    p2 = params.probability("p2")
    params.done()

    def run(rng_seed: list[int]) -> ScenarioResult:
        first = depolarizing_channel(p1)
        second = depolarizing_channel(p2)
        report = bottleneck_check(first, second)
        return ScenarioResult(
            metrics=[
                ("chi_first", report.chi_first),
                ("chi_second", report.chi_second),
                ("chi_serial", report.chi_serial),
                ("chi_switch", phy_effective_rate(first, second)),
                ("bottleneck_holds", report.holds),
            ]
        )

    return run


def _node_index_pair(params: Fields, label: str, item: Any) -> tuple[int, ...]:
    if not isinstance(item, list) or len(item) != 2:
        raise params.error(f"{label} must be a list of two integers, got {item!r}")
    return tuple(params.check_integer(f"{label}[{k}]", v) for k, v in enumerate(item))


def _prepare_mac_compare(topology: Topology | None, cell: dict) -> Run:
    params = Fields(cell)
    protocol = params.text("protocol")
    protocols = tuple(p.value for p in MacProtocol)
    if protocol not in protocols:
        raise params.error(f"protocol {protocol!r} is not one of {protocols}")
    config = MacConfig(
        n_nodes=params.integer("n_nodes"),
        protocol=MacProtocol(protocol),
        slots=params.integer("slots"),
        offered_load=params.probability("offered_load"),
        w_refresh_cost=params.integer("w_refresh_cost", 0),
        backoff_window=params.integer("backoff_window", 0),
        carrier_sensing=params.flag("carrier_sensing", True),
        hidden_pairs=tuple(params.items("hidden_pairs", [], partial(_node_index_pair, params))),
    )
    params.done()

    def run(rng_seed: list[int]) -> ScenarioResult:
        metrics_out = run_mac_sim(config, rng_seed)
        return ScenarioResult(
            metrics=[
                ("throughput", metrics_out.throughput),
                ("collision_rate", metrics_out.collision_rate),
                ("fairness", metrics_out.fairness),
                ("privacy_ok", metrics_out.privacy_ok),
                ("contention_signaling_bits", metrics_out.contention_signaling_bits),
            ],
            bits_host_to_host=metrics_out.herald_bits_host_to_host,
        )

    return run


def _prepare_multipath_routing(topology: Topology | None, cell: dict) -> Run:
    topology = _need_topology(topology, "multipath_routing", 2)
    params = Fields(cell)
    src = params.node(topology.nodes, "src")
    dst = params.node(topology.nodes, "dst")
    params.done()
    # Enumerating raises past its caps, so a cell that cannot be planned
    # fails here, and every run plans over this one list.
    paths = simple_paths(topology, src, dst)

    def run(rng_seed: list[int]) -> ScenarioResult:
        single = route_max_bottleneck(topology, src, dst)
        merged = route_with_switch_merging(topology, paths, single)
        trace = [
            f"single rate={single.effective_rate!r} path={'-'.join(single.paths[0])}",
            f"merged rate={merged.effective_rate!r} mode={merged.mode.value} "
            + " ".join("-".join(p) for p in merged.paths),
        ]
        return ScenarioResult(
            metrics=[
                ("single_path_rate", single.effective_rate),
                ("merged_rate", merged.effective_rate),
                ("merged_uses_superposition", merged.mode is PlanMode.SUPERPOSED_PAIR),
                ("dominance_holds", merged.effective_rate >= single.effective_rate - 1e-9),
                ("single_unreachable", single.unreachable),
            ],
            trace=tuple(trace),
        )

    return run


# Scenario name -> prepare, in listing order.
SCENARIOS: dict[str, Callable[[Topology | None, dict], Run]] = {
    "teleport": _prepare_teleport,
    "superdense": _prepare_superdense,
    "swap": _prepare_swap,
    "switch_activation": _prepare_switch_activation,
    "mac_compare": _prepare_mac_compare,
    "multipath_routing": _prepare_multipath_routing,
}
