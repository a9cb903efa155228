"""Single-threaded discrete-event engine over a static topology.

Time is an integer tick counter.  An event is a queue entry
``(time, seq, kind, detail, handler)``; events fire in ``(time, seq)``
order, so simultaneous events keep FIFO scheduling order and a fixed
``(topology, seed)`` pair replays to an identical trace.  Firing an event
appends its trace record ``(time, seq, kind, detail)`` and calls
``handler(engine, detail)``, so a handler gets exactly what its record
shows.  Every classical bit is charged to a ledger tagged with its
signaling scope: host-to-host for link-local heralds, which
``attempt_entanglement`` charges, and end-to-end for the corrections
``send_classical`` carries along a ``ClassicalRoute``.  A delivery's
detail is its ``CorrectionMessage``; ``format_record`` turns a record
into its trace line where a trace file is written.  A link's pair is
only its correlation matrix ``QuantumLink.pair_correlations``.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .channels import ChannelModel
from .protocols import MAX_DRAW_COUNT, CorrectionMessage, bell_pair_correlations


class EventKind(enum.Enum):
    CLASSICAL_DELIVER = "classical_deliver"
    ENTANGLEMENT_ATTEMPT = "entanglement_attempt"
    PROTOCOL_STEP = "protocol_step"


class SignalingScope(enum.Enum):
    HOST_TO_HOST = "host_to_host"
    END_TO_END = "end_to_end"


# (time, seq, kind, detail) of one fired event.
TraceRecord = tuple[int, int, EventKind, Any]

# Called as handler(engine, detail) when its event fires.
Handler = Callable[["EventEngine", Any], None]


class EngineAborted(RuntimeError):
    """An event handler raised; the trace records up to the abort are kept."""

    def __init__(self, cause: BaseException, trace: tuple):
        super().__init__(f"engine aborted: {cause!r}")
        self.cause = cause
        self.trace = trace


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

    @property
    def pair_correlations(self) -> np.ndarray:
        """Correlation matrix ``R D R^T`` of the pair the link delivers,
        phi+ (correlations ``D``) with the link channel, of Pauli transfer
        matrix ``R``, on each half.  A stored pair does not decohere."""
        return bell_pair_correlations(self.channel.ptm, self.channel.ptm)


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


class ClassicalRoute(NamedTuple):
    """A hop-count shortest path and the sum of its links' latencies."""

    nodes: tuple[str, ...]
    latency: int


@dataclass
class Topology:
    nodes: tuple[str, ...]
    classical_links: tuple[ClassicalLink, ...] = ()
    quantum_links: tuple[QuantumLink, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node ids in topology")
        self._classical_links, self._classical_neighbors = _index_links(
            self.nodes, "classical_links", self.classical_links
        )
        self._quantum_links, self.quantum_neighbors = _index_links(
            self.nodes, "quantum_links", self.quantum_links
        )

    def shortest_classical_route(self, src: str, dst: str) -> ClassicalRoute | None:
        """Hop-count shortest path over classical links (BFS) with its
        summed latency, or None."""
        if src == dst:
            return ClassicalRoute((src,), 0)
        neighbors, links = self._classical_neighbors, self._classical_links
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
                            latency = 0
                            while route[-1] != src:
                                hop = previous[route[-1]]
                                latency += links[frozenset((hop, route[-1]))].latency
                                route.append(hop)
                            return ClassicalRoute(tuple(reversed(route)), latency)
                        nxt.append(other)
            frontier = nxt
        return None

    def quantum_link(self, a: str, b: str) -> QuantumLink | None:
        return self._quantum_links.get(frozenset((a, b)))


def format_record(record: TraceRecord) -> str:
    """The trace line of one record."""
    time, seq, kind, detail = record
    if kind is EventKind.CLASSICAL_DELIVER:
        detail = (
            f"purpose={detail.purpose.value} bits={len(detail.bits)} "
            f"origin={detail.origin} target={detail.target} scope=end_to_end"
        )
    return f"t={time} seq={seq} kind={kind.value} {detail}".rstrip()


class LedgerEntry(NamedTuple):
    time: int
    bits: int
    scope: SignalingScope
    purpose: str
    origin: str
    target: str


class RunResult(NamedTuple):
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
        self._queue: list[tuple[int, int, EventKind, Any, Handler]] = []
        self.trace: list[TraceRecord] = []
        self.ledger: list[LedgerEntry] = []
        self.bits_host_to_host = 0
        self.bits_end_to_end = 0

    # -- scheduling ------------------------------------------------------

    def schedule(self, time: int, kind: EventKind, detail: Any, handler: Handler) -> None:
        """Fire ``handler(engine, detail)`` at ``time``, recorded as ``detail``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at t={time}, current time is {self.now}")
        heapq.heappush(self._queue, (int(time), self._seq, kind, detail, handler))
        self._seq += 1

    # -- classical plane -------------------------------------------------

    def send_classical(
        self,
        message: CorrectionMessage,
        route: ClassicalRoute,
        on_deliver: Callable[[CorrectionMessage], None],
    ) -> None:
        """Charge ``message`` to the end-to-end ledger and call
        ``on_deliver(message)`` once it arrives, ``route.latency`` ticks
        from now."""
        if len(route.nodes) < 2:
            raise ValueError(f"route {route.nodes} needs at least two nodes")
        src, dst = route.nodes[0], route.nodes[-1]
        bits = len(message.bits)
        self.ledger.append(
            LedgerEntry(self.now, bits, SignalingScope.END_TO_END, message.purpose.value, src, dst)
        )
        self.bits_end_to_end += bits
        self.schedule(
            self.now + route.latency,
            EventKind.CLASSICAL_DELIVER,
            message,
            lambda _engine, _detail: on_deliver(message),
        )

    # -- quantum plane ---------------------------------------------------

    def attempt_entanglement(self, link: QuantumLink) -> int:
        """All of a link's generation attempts, up to its first success.

        The attempts are independent Bernoulli trials, so their number is
        one geometric draw, which this returns.  The pair they make is the
        link's ``pair_correlations``.  The one-bit heralding message is charged to
        the host-to-host ledger at the tick of the successful attempt,
        ``now + (attempts - 1) * attempt_period``.
        """
        attempts = int(self.rng.geometric(link.gen_success_prob))
        if attempts == MAX_DRAW_COUNT:
            raise OverflowError(
                f"link {link.a}-{link.b}: at gen_success_prob {link.gen_success_prob} the "
                "attempt count reached the geometric draw's cap of 2^63 - 1"
            )
        herald_time = self.now + (attempts - 1) * link.attempt_period
        self.ledger.append(
            LedgerEntry(herald_time, 1, SignalingScope.HOST_TO_HOST, "herald", link.a, link.b)
        )
        self.bits_host_to_host += 1
        return attempts

    # -- main loop -------------------------------------------------------

    def run_until(self) -> RunResult:
        """Fire every event until the queue is empty.

        A handler exception aborts the run; the trace records accumulated
        so far are preserved on the raised error.
        """
        queue = self._queue
        trace = self.trace
        pop = heapq.heappop
        while queue:
            time, seq, kind, detail, handler = pop(queue)
            self.now = time
            trace.append((time, seq, kind, detail))
            try:
                handler(self, detail)
            except Exception as exc:  # noqa: BLE001 - wrapped with trace context
                raise EngineAborted(exc, tuple(trace)) from exc
        return RunResult(
            tuple(trace),
            len(trace),
            self.bits_host_to_host,
            self.bits_end_to_end,
        )
