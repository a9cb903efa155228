"""Trajectory planning over the quantum links of a topology.

Single-path selection is a widest-path search: maximize the minimum
per-link Holevo rate along the route.  The merging planner additionally
considers every pair of link-disjoint simple paths combined through the
causal-order switch; a pair of individually useless paths can then still
carry information, so the merged plan is never worse than the best single
path.  Exactly one packet instance traverses a merged plan: the switched
channel acts on a single system qubit plus the order-control qubit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..channels import (
    ChannelModel,
    SwitchChannel,
    compose_serial,
    quantum_switch,
    reduce_kraus,
)
from ..engine import Topology, adjacency
from .phy import PLUS_CONTROL, phy_effective_rate

RATE_EPS = 1e-9


class PlanMode(enum.Enum):
    SINGLE_PATH = "single_path"
    SUPERPOSED_PAIR = "superposed_pair"


@dataclass
class TrajectoryPlan:
    mode: PlanMode
    paths: tuple[tuple[str, ...], ...]
    effective_rate: float
    unreachable: bool = False
    merged_channel: SwitchChannel | None = None


def _link_rates(topology: Topology) -> dict[frozenset[str], float]:
    rates: dict[frozenset[str], float] = {}
    cache: dict[int, float] = {}
    for link in topology.quantum_links:
        key = id(link.channel)
        if key not in cache:
            cache[key] = phy_effective_rate(link.channel, "direct")
        rates[frozenset((link.a, link.b))] = cache[key]
    return rates


def route_max_bottleneck(topology: Topology, src: str, dst: str) -> TrajectoryPlan:
    """Best-first search for the path with the largest bottleneck rate.

    States are whole paths ordered by ``(-bottleneck, path)``, so the first
    complete path popped has the maximum rate and, among equals, the
    lexicographically smallest node sequence.
    """
    if src not in topology.nodes or dst not in topology.nodes:
        raise ValueError(f"unknown endpoint in ({src}, {dst})")
    if src == dst:
        raise ValueError("source and destination must differ")
    rates = _link_rates(topology)
    neighbors = adjacency(topology.nodes, topology.quantum_links)
    queue: list[tuple[float, tuple[str, ...]]] = [(-np.inf, (src,))]
    while queue:
        neg_rate, path = heappop(queue)
        node = path[-1]
        if node == dst:
            return TrajectoryPlan(PlanMode.SINGLE_PATH, (path,), -neg_rate)
        for other in neighbors[node]:
            if other in path:
                continue
            rate = rates[frozenset((node, other))]
            if rate <= RATE_EPS:
                continue
            bottleneck = min(-neg_rate, rate)
            heappush(queue, (-bottleneck, path + (other,)))
    return TrajectoryPlan(PlanMode.SINGLE_PATH, ((),), 0.0, unreachable=True)


def _simple_paths(topology: Topology, src: str, dst: str) -> list[tuple[str, ...]]:
    neighbors = adjacency(topology.nodes, topology.quantum_links)
    found: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(src,)]
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == dst:
            found.append(path)
            continue
        for other in neighbors[node]:
            if other not in path:
                stack.append(path + (other,))
    found.sort()
    return found


def _path_links(path: tuple[str, ...]) -> set[frozenset[str]]:
    return {frozenset(pair) for pair in zip(path, path[1:])}


def _path_channel(topology: Topology, path: tuple[str, ...]) -> ChannelModel:
    channel: ChannelModel | None = None
    for a, b in zip(path, path[1:]):
        link = topology.quantum_link(a, b)
        assert link is not None
        channel = link.channel if channel is None else compose_serial(channel, link.channel)
        # Keep the Kraus count bounded as links accumulate.
        if len(channel.kraus_ops) > 4:
            channel = reduce_kraus(channel)
    assert channel is not None
    return channel


def _channel_fingerprint(channel: ChannelModel) -> bytes:
    stacked = np.concatenate([k.reshape(-1) for k in channel.kraus_ops])
    return np.round(stacked, 12).tobytes()


_switch_rate_cache: dict[tuple[bytes, bytes], float] = {}


def _switch_rate(c1: ChannelModel, c2: ChannelModel) -> float:
    key = tuple(sorted((_channel_fingerprint(c1), _channel_fingerprint(c2))))
    if key not in _switch_rate_cache:
        _switch_rate_cache[key] = phy_effective_rate((c1, c2), "switch")
    return _switch_rate_cache[key]


def route_with_switch_merging(topology: Topology, src: str, dst: str) -> TrajectoryPlan:
    """Best plan over single paths and switch-merged link-disjoint pairs.

    Pair candidates serialize each path into one channel and rate the
    superposed traversal of the two; the best single path is kept as the
    starting candidate, so the result never falls below it.
    """
    best = route_max_bottleneck(topology, src, dst)
    paths = _simple_paths(topology, src, dst)
    channels = [_path_channel(topology, p) for p in paths]
    links = [_path_links(p) for p in paths]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if links[i] & links[j]:
                continue
            rate = _switch_rate(channels[i], channels[j])
            if rate > best.effective_rate + RATE_EPS:
                best = TrajectoryPlan(
                    PlanMode.SUPERPOSED_PAIR,
                    (paths[i], paths[j]),
                    rate,
                    merged_channel=quantum_switch(channels[i], channels[j], PLUS_CONTROL),
                )
    return best
