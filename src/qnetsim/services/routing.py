"""Trajectory planning over the quantum links of a topology.

Single-path selection is a widest-path search: maximize the minimum
per-link Holevo rate along the route.  A node-label Dijkstra finds that
bottleneck, and among the paths that reach it the lexicographically
smallest is built hop by hop.  The merging planner additionally considers
every pair of link-disjoint simple paths combined through the causal-order
switch; a pair of individually useless paths can then still carry
information, so the merged plan is never worse than the best single path.
Exactly one packet instance traverses a merged plan: the switched channel
acts on a single system qubit plus the order-control qubit.

``simple_paths`` enumerates those paths, checking the endpoints and
stopping past a cap on the paths it finds and one on the partial paths it
walks.  The merging planner does not enumerate: it plans over the list its
caller enumerated once, so a scenario cell validated with that list runs
every seed over it.

Link-disjoint pairs come from per-link path bitsets: bit ``i`` of a link's
int is set when path ``i`` crosses that link, so the paths that share no
link with path ``i`` are the complement of the union of its links' ints.
A path's serial channel is its Pauli transfer matrix (PTM), folded as
``R_link @ R_prefix`` only when a link-disjoint pair first needs it, and
once per shared prefix: paths from the source that share their first hops
share the matrix of those hops.  A path is keyed by its PTM's exact bytes,
so two different channels never share a rate, and each distinct pair of
keys is rated once by the switch kernel on the two PTMs the keys hold.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Collection, Iterator, Mapping, Sequence
from heapq import heappop, heappush
from typing import NamedTuple

import numpy as np

from ..channels import switch_holevo_from_ptms
from ..engine import Topology
from .phy import phy_effective_rate

RATE_EPS = 1e-9
# Corner to corner, a 4x4 grid has 184 simple paths, 5x5 8 512 and 6x6
# 1 262 816; enumerating them stops past this many.
_SIMPLE_PATH_CAP = 10_000
# The walk also stops past this many partial paths, so a dst reachable only
# past a large dead end fails fast: the worst pair of a 5x5 grid walks
# 90 398 of them, and 250 000 take about half a second.
_PARTIAL_PATH_CAP = 250_000


class PlanMode(enum.Enum):
    SINGLE_PATH = "single_path"
    SUPERPOSED_PAIR = "superposed_pair"


class TrajectoryPlan(NamedTuple):
    mode: PlanMode
    paths: tuple[tuple[str, ...], ...]
    effective_rate: float
    unreachable: bool = False


def _usable_rates(topology: Topology) -> dict[str, dict[str, float]]:
    """Rate of every link that rates above ``RATE_EPS``, under both its ends."""
    rates: dict[str, dict[str, float]] = {node: {} for node in topology.nodes}
    for link in topology.quantum_links:
        rate = phy_effective_rate(link.channel)
        if rate > RATE_EPS:
            rates[link.a][link.b] = rates[link.b][link.a] = rate
    return rates


def _check_endpoints(topology: Topology, src: str, dst: str) -> None:
    if src not in topology.nodes or dst not in topology.nodes:
        raise ValueError(f"unknown endpoint in ({src}, {dst})")
    if src == dst:
        raise ValueError("source and destination must differ")


def _component(
    neighbors: Mapping[str, Sequence[str]], start: str, blocked: Collection[str] = ()
) -> set[str]:
    """The nodes reachable from ``start`` without entering ``blocked``."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for other in neighbors[node]:
            if other not in seen and other not in blocked:
                seen.add(other)
                frontier.append(other)
    return seen


def _widest_bottleneck(rates: dict[str, dict[str, float]], src: str, dst: str) -> float | None:
    """The largest bottleneck rate of a path from ``src`` to ``dst``, by a
    node-label Dijkstra that settles nodes in falling width, or ``None``
    when no path of usable links joins them."""
    width = {src: math.inf}
    queue = [(-math.inf, src)]
    settled: set[str] = set()
    while queue:
        neg_width, node = heappop(queue)
        if node == dst:
            return -neg_width
        if node in settled:
            continue
        settled.add(node)
        for other, rate in rates[node].items():
            through = min(-neg_width, rate)
            if through > width.get(other, 0.0):
                width[other] = through
                heappush(queue, (-through, other))
    return None


def route_max_bottleneck(topology: Topology, src: str, dst: str) -> TrajectoryPlan:
    """The path with the largest bottleneck rate over links that rate above
    ``RATE_EPS``; among equals, the lexicographically smallest node sequence.

    Dijkstra gives the bottleneck ``B``.  The paths that reach it are the
    simple paths over links rated ``>= B``, and the smallest of them is
    built greedily: from each node it takes the smallest neighbour from
    which ``dst`` can still be reached over those links without revisiting
    a node, one search per hop.
    """
    _check_endpoints(topology, src, dst)
    rates = _usable_rates(topology)
    bottleneck = _widest_bottleneck(rates, src, dst)
    if bottleneck is None:
        return TrajectoryPlan(PlanMode.SINGLE_PATH, ((),), 0.0, unreachable=True)
    wide = {
        node: [other for other in adj if rates[node].get(other, 0.0) >= bottleneck]
        for node, adj in topology.quantum_neighbors.items()
    }
    path = [src]
    while path[-1] != dst:
        onward = _component(wide, dst, path)
        path.append(next(other for other in wide[path[-1]] if other in onward))
    return TrajectoryPlan(PlanMode.SINGLE_PATH, (tuple(path),), bottleneck)


def simple_paths(topology: Topology, src: str, dst: str) -> list[tuple[str, ...]]:
    """Every simple path of quantum links from ``src`` to ``dst``, sorted.

    Raises ``ValueError`` for an unknown endpoint or ``src == dst``, past
    ``_SIMPLE_PATH_CAP`` paths found, and past ``_PARTIAL_PATH_CAP``
    partial paths walked.
    """
    _check_endpoints(topology, src, dst)
    neighbors = topology.quantum_neighbors
    # Without a path to dst the walk below would visit every simple path
    # from src and find none.
    if dst not in _component(neighbors, src):
        return []
    found: list[tuple[str, ...]] = []
    stack: list[tuple[str, ...]] = [(src,)]
    walked = 0
    while stack:
        path = stack.pop()
        walked += 1
        if walked > _PARTIAL_PATH_CAP:
            raise ValueError(
                f"more than {_PARTIAL_PATH_CAP} partial paths walked from src {src!r} "
                f"to dst {dst!r}"
            )
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


def _disjoint_pairs(
    topology: Topology, paths: Sequence[tuple[str, ...]]
) -> Iterator[tuple[int, int]]:
    """Every pair ``i < j`` of link-disjoint paths, in ascending ``(i, j)``.

    ``through[k]`` has bit ``i`` set when path ``i`` crosses link ``k``;
    path ``i``'s partners are the paths outside the union of its links'
    bitsets.
    """
    link_index: dict[tuple[str, str], int] = {}
    for k, link in enumerate(topology.quantum_links):
        link_index[link.a, link.b] = link_index[link.b, link.a] = k
    hops = [[link_index[hop] for hop in zip(path, path[1:])] for path in paths]
    through = [0] * len(topology.quantum_links)
    for i, links in enumerate(hops):
        for k in links:
            through[k] |= 1 << i
    everyone = (1 << len(paths)) - 1
    for i, links in enumerate(hops):
        shared = 0
        for k in links:
            shared |= through[k]
        # Bit 0 of ``partners`` is path i + 1.
        partners = (everyone & ~shared) >> (i + 1)
        while partners:
            lowest = partners & -partners
            partners ^= lowest
            yield i, i + lowest.bit_length()


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
    topology: Topology, paths: Sequence[tuple[str, ...]], single: TrajectoryPlan
) -> TrajectoryPlan:
    """Best plan over single paths and switch-merged link-disjoint pairs.

    ``paths`` are the sorted simple paths of one source and destination,
    ``simple_paths(topology, src, dst)``, and ``single`` is their widest
    path, ``route_max_bottleneck(topology, src, dst)``; the caller has
    enumerated and planned both already.  ``single`` is kept as the
    starting candidate, so the result never falls below it.  The
    link-disjoint pairs come from ``_disjoint_pairs`` in ascending
    ``(i, j)``, so among pairs of equal rate the first one wins.  Each
    pair's paths are serialized into their PTMs and the superposed
    traversal of the two is rated by the switch kernel.
    """
    best = single
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
    for i, j in _disjoint_pairs(topology, paths):
        pair = tuple(sorted((key(i), key(j))))
        if pair not in switch_rates:
            first, second = (np.frombuffer(k).reshape(4, 4) for k in pair)
            switch_rates[pair] = switch_holevo_from_ptms(first, second)
        rate = switch_rates[pair]
        if rate > best.effective_rate + RATE_EPS:
            best = TrajectoryPlan(PlanMode.SUPERPOSED_PAIR, (paths[i], paths[j]), rate)
    return best
