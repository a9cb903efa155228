"""Single-threaded discrete-event engine over a static topology.

Time is an integer tick counter.  Events fire in ``(time, sequence)``
order, so simultaneous events keep FIFO scheduling order and a fixed
``(topology, seed)`` pair replays to a bit-identical trace.  All classical
traffic passes through ``send_classical``, which charges every message to
a ledger tagged with its signaling scope: host-to-host for link-local
coordination (heralding), end-to-end for route-wide corrections.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .channels import ChannelModel, apply_channel
from .errors import EngineAborted, SchedulingError, UnreachableError
from .protocols import CorrectionMessage, EntangledResource, make_bell_pair


class EventKind(enum.Enum):
    CLASSICAL_DELIVER = "classical_deliver"
    ENTANGLEMENT_ATTEMPT = "entanglement_attempt"
    PROTOCOL_STEP = "protocol_step"
    CUSTOM = "custom"


class SignalingScope(enum.Enum):
    HOST_TO_HOST = "host_to_host"
    END_TO_END = "end_to_end"


@dataclass(frozen=True)
class ClassicalLink:
    a: str
    b: str
    latency: int

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError(f"classical link latency must be >= 1, got {self.latency}")


@dataclass
class QuantumLink:
    a: str
    b: str
    channel: ChannelModel
    gen_success_prob: float
    attempt_period: int

    def __post_init__(self):
        if not 0.0 <= self.gen_success_prob <= 1.0:
            raise ValueError(f"generation probability {self.gen_success_prob} outside [0, 1]")
        if self.attempt_period < 1:
            raise ValueError(f"attempt period must be >= 1, got {self.attempt_period}")


def adjacency(
    nodes: tuple[str, ...], links: Iterable[ClassicalLink | QuantumLink]
) -> dict[str, list[str]]:
    """Sorted neighbour lists of every node over undirected ``links``."""
    neighbors: dict[str, list[str]] = {n: [] for n in nodes}
    for link in links:
        neighbors[link.a].append(link.b)
        neighbors[link.b].append(link.a)
    for adj in neighbors.values():
        adj.sort()
    return neighbors


@dataclass
class Topology:
    nodes: tuple[str, ...]
    classical_links: tuple[ClassicalLink, ...] = ()
    quantum_links: tuple[QuantumLink, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids in topology")
        known = set(self.nodes)
        for link in list(self.classical_links) + list(self.quantum_links):
            if link.a not in known or link.b not in known:
                raise ValueError(f"link {link.a}-{link.b} references unknown node")
            if link.a == link.b:
                raise ValueError(f"self-link on node {link.a}")
        self._latency: dict[frozenset[str], int] = {}
        for link in self.classical_links:
            self._latency[frozenset((link.a, link.b))] = link.latency
        self._classical_neighbors = adjacency(self.nodes, self.classical_links)

    def classical_latency(self, a: str, b: str) -> int | None:
        return self._latency.get(frozenset((a, b)))

    def shortest_classical_route(self, src: str, dst: str) -> tuple[str, ...] | None:
        """Hop-count shortest path over classical links (BFS), or None."""
        if src == dst:
            return (src,)
        neighbors = self._classical_neighbors
        previous: dict[str, str] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            nxt = []
            for node in frontier:
                for other in neighbors[node]:
                    if other not in seen:
                        seen.add(other)
                        previous[other] = node
                        if other == dst:
                            route = [dst]
                            while route[-1] != src:
                                route.append(previous[route[-1]])
                            return tuple(reversed(route))
                        nxt.append(other)
            frontier = nxt
        return None

    def quantum_link(self, a: str, b: str) -> QuantumLink | None:
        for link in self.quantum_links:
            if {link.a, link.b} == {a, b}:
                return link
        return None


@dataclass
class Event:
    time: int
    kind: EventKind
    payload: Any = None
    handler: Callable[["EventEngine", "Event"], None] | None = None
    seq: int = -1

    def summary(self) -> str:
        if self.kind is EventKind.CLASSICAL_DELIVER and self.payload is not None:
            msg, _, scope = self.payload
            return (
                f"purpose={msg.purpose.value} bits={len(msg.bits)} "
                f"origin={msg.origin} target={msg.target} scope={scope.value}"
            )
        if isinstance(self.payload, str):
            return self.payload
        return ""


@dataclass(frozen=True)
class LedgerEntry:
    time: int
    bits: int
    scope: SignalingScope
    purpose: str
    origin: str
    target: str


@dataclass
class RunResult:
    trace: tuple[str, ...]
    events_processed: int
    bits_host_to_host: int
    bits_end_to_end: int


class EventEngine:
    """Deterministic event loop with a classical-bit ledger."""

    def __init__(self, topology: Topology, seed):
        self.topology = topology
        self.rng = np.random.default_rng(seed)
        self.now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Event]] = []
        self.trace: list[str] = []
        self.ledger: list[LedgerEntry] = []
        self.events_processed = 0

    # -- scheduling ------------------------------------------------------

    def schedule(
        self,
        time: int,
        kind: EventKind,
        payload: Any = None,
        handler: Callable[["EventEngine", Event], None] | None = None,
    ) -> Event:
        if time < self.now:
            raise SchedulingError(f"cannot schedule at t={time}, current time is {self.now}")
        event = Event(int(time), kind, payload, handler, self._seq)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    # -- classical plane -------------------------------------------------

    def send_classical(
        self,
        message: CorrectionMessage,
        route: tuple[str, ...],
        scope: SignalingScope,
        on_deliver: Callable[[CorrectionMessage], None] | None = None,
        size_bits: int | None = None,
        purpose: str | None = None,
    ) -> Event:
        """Queue a classical message along ``route``; delivery takes the sum
        of per-hop link latencies."""
        if len(route) < 2:
            raise ValueError(f"route {route} needs at least two nodes")
        if scope is SignalingScope.HOST_TO_HOST and len(route) != 2:
            raise ValueError("host-to-host messages may only cross a single link")
        delay = 0
        for a, b in zip(route, route[1:]):
            latency = self.topology.classical_latency(a, b)
            if latency is None:
                raise UnreachableError(f"no classical link between {a} and {b}")
            delay += latency
        bits = size_bits if size_bits is not None else len(message.bits)
        self.ledger.append(
            LedgerEntry(
                self.now,
                bits,
                scope,
                purpose or message.purpose.value,
                route[0],
                route[-1],
            )
        )
        return self.schedule(
            self.now + delay,
            EventKind.CLASSICAL_DELIVER,
            payload=(message, on_deliver, scope),
            handler=_deliver_classical,
        )

    @property
    def bits_host_to_host(self) -> int:
        return sum(e.bits for e in self.ledger if e.scope is SignalingScope.HOST_TO_HOST)

    @property
    def bits_end_to_end(self) -> int:
        return sum(e.bits for e in self.ledger if e.scope is SignalingScope.END_TO_END)

    # -- quantum plane ---------------------------------------------------

    def attempt_entanglement(self, link: QuantumLink) -> EntangledResource | None:
        """One Bernoulli generation attempt on a quantum link.

        On success both halves of a fresh Bell pair are degraded by the
        link channel and a one-bit heralding message is charged to the
        host-to-host ledger.
        """
        if self.rng.random() >= link.gen_success_prob:
            return None
        pair = make_bell_pair(holders=(link.a, link.b))
        state = pair.state
        for qubit in (0, 1):
            state = apply_channel(link.channel, state, targets=(qubit,))
        resource = EntangledResource(state, pair.kind, pair.holders)
        self.ledger.append(
            LedgerEntry(self.now, 1, SignalingScope.HOST_TO_HOST, "herald", link.a, link.b)
        )
        return resource

    # -- main loop -------------------------------------------------------

    def run_until(self, t_end: int) -> RunResult:
        """Fire all events with ``time <= t_end``.

        A handler exception aborts the run; the trace prefix accumulated
        so far is preserved on the raised error.
        """
        while self._queue and self._queue[0][0] <= t_end:
            _, _, event = heapq.heappop(self._queue)
            self.now = event.time
            self.trace.append(
                f"t={event.time} seq={event.seq} kind={event.kind.value} {event.summary()}".rstrip()
            )
            self.events_processed += 1
            if event.handler is not None:
                try:
                    event.handler(self, event)
                except Exception as exc:  # noqa: BLE001 - wrapped with trace context
                    raise EngineAborted(exc, tuple(self.trace)) from exc
        self.now = max(self.now, t_end)
        return RunResult(
            tuple(self.trace),
            self.events_processed,
            self.bits_host_to_host,
            self.bits_end_to_end,
        )


def _deliver_classical(engine: EventEngine, event: Event) -> None:
    message, on_deliver, _ = event.payload
    if on_deliver is not None:
        on_deliver(message)
