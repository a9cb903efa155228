"""Single-threaded discrete-event engine over a static topology.

Time is an integer tick counter.  Events fire in ``(time, sequence)``
order, so simultaneous events keep FIFO scheduling order and a fixed
``(topology, seed)`` pair replays to an identical trace.  All classical
traffic passes through ``send_classical``, which charges every message to
a ledger tagged with its signaling scope: host-to-host for link-local
coordination (heralding), end-to-end for route-wide corrections.

The trace is plain data: one ``(time, seq, kind, detail)`` record per
fired event, whose detail is the event's payload string, or
``(CorrectionMessage, SignalingScope)`` for a classical delivery.  An
event costs its heap operation and its handler only; ``format_record``
turns a record into its trace line where a trace file is written.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .channels import ChannelModel, apply_channel
from .errors import EngineAborted, SchedulingError, UnreachableError
from .protocols import CorrectionMessage, EntangledResource, ResourceKind, phi_plus_state
from .qstate import QuantumState


class EventKind(enum.Enum):
    CLASSICAL_DELIVER = "classical_deliver"
    ENTANGLEMENT_ATTEMPT = "entanglement_attempt"
    PROTOCOL_STEP = "protocol_step"


class SignalingScope(enum.Enum):
    HOST_TO_HOST = "host_to_host"
    END_TO_END = "end_to_end"


# NumPy clamps a geometric draw at this value.
_GEOMETRIC_CAP = int(np.iinfo(np.int64).max)

# (time, seq, kind, detail) of one fired event.
TraceRecord = tuple[int, int, EventKind, Any]


@dataclass(frozen=True)
class ClassicalLink:
    a: str
    b: str
    latency: int

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError(f"classical link latency must be >= 1, got {self.latency}")


@dataclass(frozen=True)
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

    @cached_property
    def pair_state(self) -> QuantumState:
        """The pair the link delivers: phi+ with the link channel on each
        half.  A stored pair does not decohere, so it is built once, on
        first use, and its matrix is read-only."""
        state = phi_plus_state()
        for qubit in (0, 1):
            state = apply_channel(self.channel, state, targets=(qubit,))
        state.matrix.flags.writeable = False
        return state


def _index_links(
    nodes: tuple[str, ...], name: str, links: Iterable[ClassicalLink | QuantumLink]
) -> tuple[dict[frozenset[str], Any], dict[str, list[str]]]:
    """``links`` keyed by their unordered node pair, which only one of them
    may link, and the sorted neighbour list of every node."""
    index: dict[frozenset[str], Any] = {}
    neighbors: dict[str, list[str]] = {n: [] for n in nodes}
    for i, link in enumerate(links):
        if link.a not in neighbors or link.b not in neighbors:
            raise ValueError(f"link {link.a}-{link.b} references unknown node")
        if link.a == link.b:
            raise ValueError(f"self-link on node {link.a}")
        pair = frozenset((link.a, link.b))
        if pair in index:
            raise ValueError(f"{name}[{i}]: {link.a}-{link.b} is linked already")
        index[pair] = link
        neighbors[link.a].append(link.b)
        neighbors[link.b].append(link.a)
    for adj in neighbors.values():
        adj.sort()
    return index, neighbors


@dataclass
class Topology:
    nodes: tuple[str, ...]
    classical_links: tuple[ClassicalLink, ...] = ()
    quantum_links: tuple[QuantumLink, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids in topology")
        classical, self._classical_neighbors = _index_links(
            self.nodes, "classical_links", self.classical_links
        )
        self._latency = {pair: link.latency for pair, link in classical.items()}
        self._quantum_links, self.quantum_neighbors = _index_links(
            self.nodes, "quantum_links", self.quantum_links
        )

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
        return self._quantum_links.get(frozenset((a, b)))


@dataclass(slots=True)
class Event:
    time: int
    kind: EventKind
    payload: Any = None
    handler: Callable[["EventEngine", "Event"], None] | None = None
    seq: int = -1
    # What the event's trace record shows of its payload: the payload
    # string, ``(message, scope)`` for a delivery, or "".
    detail: Any = ""


def format_record(record: TraceRecord) -> str:
    """The trace line of one record."""
    time, seq, kind, detail = record
    if isinstance(detail, tuple):
        message, scope = detail
        detail = (
            f"purpose={message.purpose.value} bits={len(message.bits)} "
            f"origin={message.origin} target={message.target} scope={scope.value}"
        )
    return f"t={time} seq={seq} kind={kind.value} {detail}".rstrip()


class LedgerEntry(NamedTuple):
    time: int
    bits: int
    scope: SignalingScope
    purpose: str
    origin: str
    target: str


@dataclass
class RunResult:
    trace: tuple[TraceRecord, ...]
    events_processed: int
    bits_host_to_host: int
    bits_end_to_end: int


class EventEngine:
    """Deterministic event loop with a classical-bit ledger.

    ``bits_host_to_host`` and ``bits_end_to_end`` are the ledger's running
    totals per scope, kept as each message is charged.
    """

    def __init__(self, topology: Topology, seed):
        self.topology = topology
        self.rng = np.random.default_rng(seed)
        self.now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Event]] = []
        self.trace: list[TraceRecord] = []
        self.ledger: list[LedgerEntry] = []
        self.bits_host_to_host = 0
        self.bits_end_to_end = 0
        # Summed latency of each route sent over, checked on its first use.
        self._route_delay: dict[tuple[str, ...], int] = {}

    @property
    def events_processed(self) -> int:
        return len(self.trace)

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
        if kind is EventKind.CLASSICAL_DELIVER and payload is not None:
            message, _, scope = payload
            detail = (message, scope)
        else:
            detail = payload if isinstance(payload, str) else ""
        event = Event(int(time), kind, payload, handler, self._seq, detail)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    # -- classical plane -------------------------------------------------

    def _route_latency(self, route: tuple[str, ...]) -> int:
        """Sum of the per-hop link latencies along ``route``, kept per route."""
        delay = 0
        for a, b in zip(route, route[1:]):
            latency = self.topology.classical_latency(a, b)
            if latency is None:
                raise UnreachableError(f"no classical link between {a} and {b}")
            delay += latency
        self._route_delay[route] = delay
        return delay

    def send_classical(
        self,
        message: CorrectionMessage,
        route: tuple[str, ...],
        scope: SignalingScope,
        on_deliver: Callable[[CorrectionMessage], None] | None = None,
    ) -> Event:
        """Queue a classical message along ``route``; delivery takes the sum
        of per-hop link latencies."""
        if len(route) < 2:
            raise ValueError(f"route {route} needs at least two nodes")
        if scope is SignalingScope.HOST_TO_HOST and len(route) != 2:
            raise ValueError("host-to-host messages may only cross a single link")
        delay = self._route_delay.get(route)
        if delay is None:
            delay = self._route_latency(route)
        bits = len(message.bits)
        self.ledger.append(
            LedgerEntry(self.now, bits, scope, message.purpose.value, route[0], route[-1])
        )
        if scope is SignalingScope.HOST_TO_HOST:
            self.bits_host_to_host += bits
        else:
            self.bits_end_to_end += bits
        return self.schedule(
            self.now + delay,
            EventKind.CLASSICAL_DELIVER,
            payload=(message, on_deliver, scope),
            handler=_deliver_classical,
        )

    # -- quantum plane ---------------------------------------------------

    def attempt_entanglement(self, link: QuantumLink) -> tuple[int, EntangledResource]:
        """All of a link's generation attempts, up to its first success.

        The attempts are independent Bernoulli trials, so their number is
        one geometric draw.  The resource is a fresh, unconsumed wrapper of
        the link's ``pair_state``, and the one-bit heralding message is
        charged to the host-to-host ledger at the tick of the successful
        attempt, ``now + (attempts - 1) * attempt_period``.  Returns
        ``(attempts, resource)``.
        """
        attempts = int(self.rng.geometric(link.gen_success_prob))
        if attempts == _GEOMETRIC_CAP:
            raise OverflowError(
                f"link {link.a}-{link.b}: at gen_success_prob {link.gen_success_prob} the "
                "attempt count reached the geometric draw's cap of 2^63 - 1"
            )
        resource = EntangledResource(link.pair_state, ResourceKind.BELL_PHI_PLUS, (link.a, link.b))
        herald_time = self.now + (attempts - 1) * link.attempt_period
        self.ledger.append(
            LedgerEntry(herald_time, 1, SignalingScope.HOST_TO_HOST, "herald", link.a, link.b)
        )
        self.bits_host_to_host += 1
        return attempts, resource

    # -- main loop -------------------------------------------------------

    def run_until(self, t_end: int | None = None) -> RunResult:
        """Fire all events with ``time <= t_end``, or, without ``t_end``,
        every event until the queue is empty.

        A handler exception aborts the run; the trace records accumulated
        so far are preserved on the raised error.
        """
        queue = self._queue
        trace = self.trace
        pop = heapq.heappop
        horizon = math.inf if t_end is None else t_end
        while queue and queue[0][0] <= horizon:
            time, seq, event = pop(queue)
            self.now = time
            trace.append((time, seq, event.kind, event.detail))
            if event.handler is not None:
                try:
                    event.handler(self, event)
                except Exception as exc:  # noqa: BLE001 - wrapped with trace context
                    raise EngineAborted(exc, tuple(trace)) from exc
        if t_end is not None:
            self.now = max(self.now, t_end)
        return RunResult(
            tuple(trace),
            len(trace),
            self.bits_host_to_host,
            self.bits_end_to_end,
        )


def _deliver_classical(engine: EventEngine, event: Event) -> None:
    message, on_deliver, _ = event.payload
    if on_deliver is not None:
        on_deliver(message)
