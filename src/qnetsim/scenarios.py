"""Scenarios: one ``prepare`` function each, and the registry of them.

``prepare(topology, cell)`` reads every parameter of one expanded cell,
checks it, and returns the cell's ``run(rng_seed) -> ScenarioResult``.
It raises ``KeyError`` naming a missing parameter and ``ValueError`` (or
``TypeError`` for a malformed value) for anything else ``run`` would
reject, before any random draw or engine event.  Config validation prepares every cell and the experiment runner
prepares each cell it runs, so one code path decides whether a cell can
run.  Routes and links are looked up once, in ``prepare``; the event
handlers keep only the engine wiring.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from .channels import depolarizing_channel
from .engine import EventEngine, EventKind, QuantumLink, SignalingScope, Topology
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
from .qstate import SCALAR_ATOL, fidelity, random_pure_state
from .services.mac import MacConfig, MacProtocol, run_mac_sim
from .services.phy import phy_effective_rate
from .services.routing import PlanMode, route_max_bottleneck, route_with_switch_merging


@dataclass
class ScenarioResult:
    metrics: list[tuple[str, Any]]
    bits_host_to_host: int = 0
    bits_end_to_end: int = 0
    trace: tuple[str, ...] = ()


Run = Callable[[list[int]], ScenarioResult]

_REQUIRED = object()


class _Params:
    """Checked reads from one cell.  Named nodes must differ, and ``done``
    rejects every name no read asked for, so a misspelt parameter fails
    instead of leaving the default in force."""

    def __init__(self, cell: dict):
        self._cell = cell
        self._read: set[str] = set()
        self._nodes: dict[str, str] = {}

    def value(self, name: str, default: Any = _REQUIRED) -> Any:
        self._read.add(name)
        if name not in self._cell and default is _REQUIRED:
            raise KeyError(name)
        return self._cell.get(name, default)

    def integer(self, name: str, default: Any = _REQUIRED, low: float = -math.inf) -> int:
        value = self.value(name, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
        return int(value)

    def probability(self, name: str, default: Any = _REQUIRED) -> float:
        value = self.value(name, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
            raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        return float(value)

    def node(self, topology: Topology, name: str, default: Any = _REQUIRED) -> str:
        value = str(self.value(name, default))
        if value not in topology.nodes:
            raise ValueError(f"{name} {value!r} is not a topology node")
        if value in self._nodes:
            raise ValueError(f"{self._nodes[value]} and {name} are both {value!r}")
        self._nodes[value] = name
        return value

    def done(self) -> None:
        unread = sorted(set(self._cell) - self._read)
        if unread:
            raise ValueError(f"unknown parameter(s) {unread}; it reads {sorted(self._read)}")


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
    return link


def _prepare_teleport(topology: Topology | None, cell: dict) -> Run:
    topology = _need_topology(topology, "teleport", 2)
    params = _Params(cell)
    n_teleports = params.integer("n_teleports", low=1)
    werner_w = params.probability("werner_w", 1.0)
    make_pair = make_bell_pair if werner_w == 1.0 else partial(werner_pair, werner_w)
    src = params.node(topology, "src", topology.nodes[0])
    dst = params.node(topology, "dst", topology.nodes[-1])
    params.done()
    route = topology.shortest_classical_route(src, dst)
    if route is None:
        raise ValueError(f"no classical route from src {src!r} to dst {dst!r}")
    horizon = n_teleports + sum(l.latency for l in topology.classical_links) * len(topology.nodes)

    def run(rng_seed: list[int]) -> ScenarioResult:
        engine = EventEngine(topology, rng_seed)
        fidelities: list[float] = []

        def teleport_step(eng: EventEngine, _event) -> None:
            payload = random_pure_state(eng.rng)
            message, destination = teleport(payload, make_pair((src, dst)), eng.rng)
            eng.send_classical(
                message,
                route,
                SignalingScope.END_TO_END,
                lambda delivered: fidelities.append(
                    fidelity(apply_correction(destination, delivered), payload)
                ),
            )

        for k in range(n_teleports):
            engine.schedule(
                k, EventKind.PROTOCOL_STEP, payload=f"teleport {k}", handler=teleport_step
            )
        result = engine.run_until(horizon)
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
    params = _Params(cell)
    n_trials = params.integer("n_trials", low=1)
    werner_w = params.probability("werner_w", 1.0)
    params.done()
    # Decoding needs a Bell overlap above 0.5; a Werner pair's best is (1 + 3w) / 4.
    if (1.0 + 3.0 * werner_w) / 4.0 < 0.5 + SCALAR_ATOL:
        raise ValueError(f"werner_w {werner_w} must exceed 1/3 for superdense decoding")
    make_pair = make_bell_pair if werner_w == 1.0 else partial(werner_pair, werner_w)

    def run(rng_seed: list[int]) -> ScenarioResult:
        rng = np.random.default_rng(rng_seed)
        messages = [(0, 0), (0, 1), (1, 0), (1, 1)]
        per_message = max(n_trials // len(messages), 1)
        metrics: list[tuple[str, Any]] = []
        total_ok = 0
        for message in messages:
            ok = 0
            for _ in range(per_message):
                joint = superdense_encode(message, make_pair())
                if superdense_decode(joint, rng) == message:
                    ok += 1
            total_ok += ok
            metrics.append((f"success_rate_{message[0]}{message[1]}", ok / per_message))
        metrics.append(("success_rate_overall", total_ok / (per_message * len(messages))))
        metrics.append(("trials", per_message * len(messages)))
        return ScenarioResult(metrics=metrics)

    return run


def _prepare_swap(topology: Topology | None, cell: dict) -> Run:
    topology = _need_topology(topology, "swap", 3)
    params = _Params(cell)
    n_swaps = params.integer("n_swaps", low=1)
    src = params.node(topology, "src", topology.nodes[0])
    mid = params.node(topology, "mid", topology.nodes[1])
    dst = params.node(topology, "dst", topology.nodes[2])
    params.done()
    left_link = _swap_link(topology, "src", src, "mid", mid)
    right_link = _swap_link(topology, "mid", mid, "dst", dst)
    period = max(left_link.attempt_period, right_link.attempt_period)
    route = topology.shortest_classical_route(mid, dst)
    if route is None:
        raise ValueError(f"no classical route from mid {mid!r} to dst {dst!r}")
    phi = phi_plus_state()

    def run(rng_seed: list[int]) -> ScenarioResult:
        engine = EventEngine(topology, rng_seed)
        fidelities: list[float] = []
        outcome_counts = {m: 0 for m in [(0, 0), (0, 1), (1, 0), (1, 1)]}

        def attempt_step(eng: EventEngine, event) -> None:
            st = event.payload
            if st["left"] is None:
                st["left"] = eng.attempt_entanglement(left_link)
            if st["right"] is None:
                st["right"] = eng.attempt_entanglement(right_link)
            if st["left"] is None or st["right"] is None:
                eng.schedule(
                    eng.now + period,
                    EventKind.ENTANGLEMENT_ATTEMPT,
                    payload=st,
                    handler=attempt_step,
                )
                return
            # A link puts the same channel on both halves of a symmetric Bell
            # pair, so naming the holders in chain order is exact however it
            # is written.
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

    return run


def _prepare_switch_activation(topology: Topology | None, cell: dict) -> Run:
    params = _Params(cell)
    p1 = params.probability("p1")
    p2 = params.probability("p2")
    params.done()

    def run(rng_seed: list[int]) -> ScenarioResult:
        # Built here, not in prepare: validation prepares every cell of a sweep.
        first = depolarizing_channel(p1)
        second = depolarizing_channel(p2)
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

    return run


def _prepare_mac_compare(topology: Topology | None, cell: dict) -> Run:
    params = _Params(cell)
    carrier_sensing = params.value("carrier_sensing", True)
    if not isinstance(carrier_sensing, bool):
        raise ValueError(f"carrier_sensing must be true or false, got {carrier_sensing!r}")
    config = MacConfig(
        n_nodes=params.integer("n_nodes"),
        protocol=MacProtocol(str(params.value("protocol"))),
        slots=params.integer("slots"),
        offered_load=params.probability("offered_load"),
        w_refresh_cost=params.integer("w_refresh_cost", 0),
        backoff_window=params.integer("backoff_window", 0),
        carrier_sensing=carrier_sensing,
        hidden_pairs=tuple(tuple(p) for p in params.value("hidden_pairs", ())),
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
    params = _Params(cell)
    src = params.node(topology, "src")
    dst = params.node(topology, "dst")
    params.done()

    def run(rng_seed: list[int]) -> ScenarioResult:
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
