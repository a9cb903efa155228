"""Trajectory planning over the quantum links of a topology.

Single-path selection is a widest-path search: maximize the minimum
per-link Holevo rate along the route.  The merging planner additionally
considers every pair of link-disjoint simple paths combined through the
causal-order switch; a pair of individually useless paths can then still
carry information, so the merged plan is never worse than the best single
path.  Exactly one packet instance traverses a merged plan: the switched
channel acts on a single system qubit plus the order-control qubit.

A path's serial channel is its Pauli transfer matrix (PTM), folded as
``R_link @ R_prefix`` only when a link-disjoint pair first needs it, and
once per shared prefix: paths from the source that share their first hops
share the matrix of those hops.  A path is keyed by its PTM's exact bytes,
so two different channels never share a rate, and each distinct pair of
keys is rated once by the switch kernel on the two PTMs the keys hold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ..channels import switch_holevo_from_ptms
from ..engine import Topology
from .phy import phy_effective_rate

RATE_EPS = 1e-9
# Corner to corner, a 4x4 grid has 184 simple paths, 5x5 8 512 and 6x6
# 1 262 816; enumerating them stops past this many.
_SIMPLE_PATH_CAP = 10_000


class PlanMode(enum.Enum):
    SINGLE_PATH = "single_path"
    SUPERPOSED_PAIR = "superposed_pair"


@dataclass
class TrajectoryPlan:
    mode: PlanMode
    paths: tuple[tuple[str, ...], ...]
    effective_rate: float
    unreachable: bool = False


def _link_rates(topology: Topology) -> dict[frozenset[str], float]:
    return {
        frozenset((link.a, link.b)): phy_effective_rate(link.channel)
        for link in topology.quantum_links
    }


def _check_endpoints(topology: Topology, src: str, dst: str) -> None:
    if src not in topology.nodes or dst not in topology.nodes:
        raise ValueError(f"unknown endpoint in ({src}, {dst})")
    if src == dst:
        raise ValueError("source and destination must differ")


def route_max_bottleneck(topology: Topology, src: str, dst: str) -> TrajectoryPlan:
    """Best-first search for the path with the largest bottleneck rate.

    States are whole paths ordered by ``(-bottleneck, path)``, so the first
    complete path popped has the maximum rate and, among equals, the
    lexicographically smallest node sequence.
    """
    _check_endpoints(topology, src, dst)
    rates = _link_rates(topology)
    neighbors = topology.quantum_neighbors
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


def simple_paths(topology: Topology, src: str, dst: str) -> list[tuple[str, ...]]:
    """Every simple path of quantum links from ``src`` to ``dst``, sorted;
    raises ``ValueError`` past the cap of ``_SIMPLE_PATH_CAP`` paths."""
    neighbors = topology.quantum_neighbors
    found: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(src,)]
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == dst:
            found.append(path)
            if len(found) > _SIMPLE_PATH_CAP:
                raise ValueError(
                    f"more than {_SIMPLE_PATH_CAP} simple paths from src {src!r} to dst {dst!r}"
                )
            continue
        for other in neighbors[node]:
            if other not in path:
                stack.append(path + (other,))
    found.sort()
    return found


def _path_ptm(
    topology: Topology,
    path: tuple[str, ...],
    prefixes: dict[tuple[str, ...], np.ndarray],
) -> np.ndarray:
    """Pauli transfer matrix of ``path``'s serial channel, folded on from
    its longest prefix in ``prefixes``; the matrix of every prefix folded
    here is added to it."""
    start = len(path)
    while start > 1 and path[:start] not in prefixes:
        start -= 1
    ptm = prefixes.get(path[:start])
    for end in range(start + 1, len(path) + 1):
        link = topology.quantum_link(path[end - 2], path[end - 1])
        assert link is not None
        ptm = link.channel.ptm if ptm is None else link.channel.ptm @ ptm
        prefixes[path[:end]] = ptm
    assert ptm is not None
    return ptm


def route_with_switch_merging(
    topology: Topology, src: str, dst: str, single: TrajectoryPlan
) -> TrajectoryPlan:
    """Best plan over single paths and switch-merged link-disjoint pairs.

    ``single`` is the widest path, ``route_max_bottleneck(topology, src,
    dst)``, which the caller has planned already.  Pair candidates
    serialize each path into one channel and rate the superposed traversal
    of the two; ``single`` is kept as the starting candidate, so the
    result never falls below it.
    """
    _check_endpoints(topology, src, dst)
    best = single
    paths = simple_paths(topology, src, dst)
    links = topology.quantum_links
    link_bits = {frozenset((link.a, link.b)): 1 << k for k, link in enumerate(links)}
    # A simple path crosses each link once, so the sum of its bits is their union.
    masks = [sum(link_bits[frozenset(pair)] for pair in zip(p, p[1:])) for p in paths]
    # These caches live only as long as the plan, since other plans rarely
    # share their entries; the plan's paths and their prefixes bound them.
    prefixes: dict[tuple[str, ...], np.ndarray] = {}
    keys: dict[int, bytes] = {}

    def key(i: int) -> bytes:
        if i not in keys:
            keys[i] = _path_ptm(topology, paths[i], prefixes).tobytes()
        return keys[i]

    # Paths with equal channels recur within one plan.
    switch_rates: dict[tuple[bytes, bytes], float] = {}
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if masks[i] & masks[j]:
                continue
            pair = tuple(sorted((key(i), key(j))))
            if pair not in switch_rates:
                first, second = (np.frombuffer(k).reshape(4, 4) for k in pair)
                switch_rates[pair] = switch_holevo_from_ptms(first, second)
            rate = switch_rates[pair]
            if rate > best.effective_rate + RATE_EPS:
                best = TrajectoryPlan(PlanMode.SUPERPOSED_PAIR, (paths[i], paths[j]), rate)
    return best
