"""Scenario runners and the registry that describes them.

A runner maps one expanded parameter cell, the config's topology and an
RNG seed to metric values.  Its registry entry also names the parameters
the scenario requires and whether it needs a topology; config
validation, the experiment runner and the CLI all read ``SCENARIOS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .channels import depolarizing_channel
from .engine import EventEngine, EventKind, SignalingScope, Topology
from .errors import UnreachableError
from .protocols import (
    apply_correction,
    entanglement_swap,
    make_bell_pair,
    phi_plus_state,
    superdense_decode,
    superdense_encode,
    teleport,
    werner_pair,
)
from .qstate import fidelity, random_pure_state
from .services.mac import MacConfig, MacProtocol, run_mac_sim
from .services.phy import phy_effective_rate
from .services.routing import PlanMode, route_max_bottleneck, route_with_switch_merging


@dataclass
class ScenarioResult:
    metrics: list[tuple[str, Any]]
    bits_host_to_host: int = 0
    bits_end_to_end: int = 0
    trace: tuple[str, ...] = ()


def _teleport_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    assert topology is not None
    src = str(cell.get("src", topology.nodes[0]))
    dst = str(cell.get("dst", topology.nodes[-1]))
    n_teleports = int(cell["n_teleports"])
    werner_w = float(cell.get("werner_w", 1.0))
    engine = EventEngine(topology, rng_seed)
    fidelities: list[float] = []

    def teleport_step(eng: EventEngine, _event) -> None:
        route = topology.shortest_classical_route(src, dst)
        if route is None:
            raise UnreachableError(f"no classical route from {src} to {dst}")
        payload = random_pure_state(eng.rng)
        if werner_w >= 1.0:
            resource = make_bell_pair((src, dst))
        else:
            resource = werner_pair(werner_w, (src, dst))
        message, destination = teleport(payload, resource, eng.rng)
        eng.send_classical(
            message,
            route,
            SignalingScope.END_TO_END,
            lambda delivered: fidelities.append(
                fidelity(apply_correction(destination, delivered), payload)
            ),
        )

    for k in range(n_teleports):
        engine.schedule(k, EventKind.PROTOCOL_STEP, payload=f"teleport {k}", handler=teleport_step)
    horizon = n_teleports + sum(l.latency for l in topology.classical_links) * len(topology.nodes)
    result = engine.run_until(horizon)
    if len(fidelities) != n_teleports:
        raise UnreachableError(f"only {len(fidelities)} of {n_teleports} corrections arrived")
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


def _superdense_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    n_trials = int(cell["n_trials"])
    werner_w = float(cell.get("werner_w", 1.0))
    rng = np.random.default_rng(rng_seed)
    messages = [(0, 0), (0, 1), (1, 0), (1, 1)]
    per_message = max(n_trials // len(messages), 1)
    metrics: list[tuple[str, Any]] = []
    total_ok = 0
    for message in messages:
        ok = 0
        for _ in range(per_message):
            resource = (
                make_bell_pair() if werner_w >= 1.0 else werner_pair(werner_w)
            )
            joint = superdense_encode(message, resource)
            if superdense_decode(joint, rng) == message:
                ok += 1
        total_ok += ok
        metrics.append((f"success_rate_{message[0]}{message[1]}", ok / per_message))
    metrics.append(("success_rate_overall", total_ok / (per_message * len(messages))))
    metrics.append(("trials", per_message * len(messages)))
    return ScenarioResult(metrics=metrics)


def _swap_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    assert topology is not None
    if len(topology.nodes) < 3:
        raise UnreachableError("swap scenario needs a three-node chain")
    src = str(cell.get("src", topology.nodes[0]))
    mid = str(cell.get("mid", topology.nodes[1]))
    dst = str(cell.get("dst", topology.nodes[2]))
    n_swaps = int(cell["n_swaps"])
    left_link = topology.quantum_link(src, mid)
    right_link = topology.quantum_link(mid, dst)
    engine = EventEngine(topology, rng_seed)
    fidelities: list[float] = []
    outcome_counts = {m: 0 for m in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    phi = phi_plus_state()

    def attempt_step(eng: EventEngine, event) -> None:
        st = event.payload
        if left_link is None or right_link is None:
            raise UnreachableError(f"missing quantum link on chain {src}-{mid}-{dst}")
        if st["left"] is None:
            st["left"] = eng.attempt_entanglement(left_link)
        if st["right"] is None:
            st["right"] = eng.attempt_entanglement(right_link)
        if st["left"] is None or st["right"] is None:
            period = max(left_link.attempt_period, right_link.attempt_period)
            eng.schedule(
                eng.now + period, EventKind.ENTANGLEMENT_ATTEMPT, payload=st, handler=attempt_step
            )
            return
        route = topology.shortest_classical_route(mid, dst)
        if route is None:
            raise UnreachableError(f"no classical route from {mid} to {dst}")
        # A link puts the same channel on both halves of a symmetric Bell pair,
        # so naming the holders in chain order is exact however it is written.
        st["left"].holders, st["right"].holders = (src, mid), (mid, dst)
        message, end_pair = entanglement_swap(st["left"], st["right"], eng.rng)
        outcome_counts[message.bits] += 1
        eng.send_classical(
            message,
            route,
            SignalingScope.END_TO_END,
            lambda delivered: fidelities.append(
                fidelity(apply_correction(end_pair, delivered), phi)
            ),
        )

    for k in range(n_swaps):
        engine.schedule(
            k,
            EventKind.ENTANGLEMENT_ATTEMPT,
            payload={"left": None, "right": None},
            handler=attempt_step,
        )
    result = engine.run_until(10_000_000)
    if len(fidelities) != n_swaps:
        raise UnreachableError(f"only {len(fidelities)} of {n_swaps} swaps completed")
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


def _switch_activation_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    first = depolarizing_channel(float(cell["p1"]))
    second = depolarizing_channel(float(cell["p2"]))
    chi_first = phy_effective_rate(first, "direct")
    chi_second = phy_effective_rate(second, "direct")
    chi_serial = phy_effective_rate((first, second), "serial")
    chi_switch = phy_effective_rate((first, second), "switch")
    bottleneck_holds = chi_serial <= min(chi_first, chi_second) + 1e-9
    return ScenarioResult(
        metrics=[
            ("chi_first", chi_first),
            ("chi_second", chi_second),
            ("chi_serial", chi_serial),
            ("chi_switch", chi_switch),
            ("bottleneck_holds", bottleneck_holds),
        ]
    )


def _mac_config(cell: dict) -> MacConfig:
    return MacConfig(
        n_nodes=int(cell["n_nodes"]),
        protocol=MacProtocol(str(cell["protocol"])),
        slots=int(cell["slots"]),
        offered_load=float(cell["offered_load"]),
        w_refresh_cost=int(cell.get("w_refresh_cost", 0)),
        backoff_window=int(cell.get("backoff_window", 0)),
        carrier_sensing=bool(cell.get("carrier_sensing", True)),
        hidden_pairs=tuple(tuple(p) for p in cell.get("hidden_pairs", ())),
    )


def _mac_compare_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    metrics_out = run_mac_sim(_mac_config(cell), rng_seed)
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


def _multipath_routing_scenario(
    topology: Topology | None, cell: dict, rng_seed: list[int]
) -> ScenarioResult:
    assert topology is not None
    src = str(cell["src"])
    dst = str(cell["dst"])
    single = route_max_bottleneck(topology, src, dst)
    merged = route_with_switch_merging(topology, src, dst)
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


@dataclass(frozen=True)
class Scenario:
    """What the harness knows about a scenario.  ``check_cell`` raises
    ``ValueError`` or ``TypeError`` on a cell that ``run`` would reject."""

    run: Callable[[Topology | None, dict, list[int]], ScenarioResult]
    required: tuple[str, ...]
    needs_topology: bool = False
    check_cell: Callable[[dict], object] | None = None


# In listing order.
SCENARIOS: dict[str, Scenario] = {
    "teleport": Scenario(_teleport_scenario, ("n_teleports",), needs_topology=True),
    "superdense": Scenario(_superdense_scenario, ("n_trials",)),
    "swap": Scenario(_swap_scenario, ("n_swaps",), needs_topology=True),
    "switch_activation": Scenario(_switch_activation_scenario, ("p1", "p2")),
    "mac_compare": Scenario(
        _mac_compare_scenario,
        ("protocol", "n_nodes", "slots", "offered_load"),
        check_cell=_mac_config,
    ),
    "multipath_routing": Scenario(
        _multipath_routing_scenario, ("src", "dst"), needs_topology=True
    ),
}
