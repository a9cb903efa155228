"""Single-threaded discrete-event engine, and the static topology that
routes and links are resolved on before a run.

Time is an integer tick counter.  An event is a queue entry
``(time, seq, kind, detail, handler)``; events fire in ``(time, seq)``
order, so simultaneous events keep FIFO scheduling order and a fixed seed
replays the same schedule to an identical trace.  Firing an event
appends its trace record ``(time, seq, kind, detail)`` and calls
``handler(engine, detail)``, so a handler gets exactly what its record
shows.  Every classical bit is charged to a ledger tagged with its
signaling scope: host-to-host for link-local heralds, which
``attempt_entanglement`` charges, and end-to-end for the corrections
``send_classical`` carries along a ``ClassicalRoute``.  A delivery's
detail is its ``CorrectionMessage``, whose origin and target its ledger
entry names; ``format_record`` turns a record into its trace line where a
trace file is written.  A link's pair is only its correlation matrix
``QuantumLink.pair_correlations``.
"""

from __future__ import annotations

import enum
import heapq
from collections import namedtuple
from typing import Any, Callable, Iterable

import numpy as np

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


ClassicalLink = namedtuple("ClassicalLink", "a b latency")
ClassicalLink.__doc__ = """Classical link between nodes ``a`` and ``b`` (str) with a
``latency`` (int) of at least one tick.  Like ``QuantumLink``, it is plain
data: the topology reader checks its fields."""


class QuantumLink(namedtuple("QuantumLink", "a b channel gen_success_prob attempt_period")):
    """Quantum link between nodes ``a`` and ``b`` (str) whose halves each
    cross ``channel`` (ChannelModel); an attempt, one every
    ``attempt_period`` (int) ticks, succeeds with ``gen_success_prob``
    (float)."""

    __slots__ = ()

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
        pair = frozenset((link.a, link.b))
        if pair in index:
            raise ValueError(f"{name}[{i}]: {link.a}-{link.b} is linked already")
        index[pair] = link
        neighbors[link.a].append(link.b)
        neighbors[link.b].append(link.a)
    for adj in neighbors.values():
        adj.sort()
    return index, neighbors


ClassicalRoute = namedtuple("ClassicalRoute", "nodes latency")
ClassicalRoute.__doc__ = """A hop-count shortest path, ``nodes`` (tuple[str, ...]),
and the sum of its links' latencies, ``latency`` (int)."""


class Topology:
    """Nodes, ``nodes`` (tuple[str, ...]), and the classical and quantum
    links between them, ``classical_links`` (tuple[ClassicalLink, ...]) and
    ``quantum_links`` (tuple[QuantumLink, ...]); compared by identity.
    Each link joins two distinct nodes of ``nodes``, as the topology reader
    checks, and no two link the same pair."""

    def __init__(
        self,
        nodes: tuple[str, ...],
        classical_links: tuple[ClassicalLink, ...] = (),
        quantum_links: tuple[QuantumLink, ...] = (),
    ):
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids in topology")
        self.nodes = nodes
        self.classical_links = classical_links
        self.quantum_links = quantum_links
        self._classical_links, self._classical_neighbors = _index_links(
            nodes, "classical_links", classical_links
        )
        self._quantum_links, self.quantum_neighbors = _index_links(
            nodes, "quantum_links", quantum_links
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


LedgerEntry = namedtuple("LedgerEntry", "time bits scope purpose origin target")
LedgerEntry.__doc__ = """One charge to the ledger: ``bits`` (int) sent at tick
``time`` (int) in ``scope`` (SignalingScope) for ``purpose`` (str) from
``origin`` to ``target`` (str)."""

RunResult = namedtuple("RunResult", "trace events_processed bits_host_to_host bits_end_to_end")
RunResult.__doc__ = """A finished run: its ``trace`` (tuple[TraceRecord, ...]),
the count of ``events_processed`` (int) and the ledger's totals
``bits_host_to_host`` and ``bits_end_to_end`` (int)."""


class EventEngine:
    """Deterministic event loop with a classical-bit ledger: a clock
    ``now``, an event queue, the ``trace`` of fired records, the ``ledger``
    and the random stream ``rng`` seeded with ``seed``.  It holds no
    topology; routes and links come resolved.

    ``bits_host_to_host`` and ``bits_end_to_end`` are the ledger's running
    totals per scope, kept as each message is charged.
    """

    def __init__(self, seed):
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
        self, message: CorrectionMessage, route: ClassicalRoute, on_deliver: Handler
    ) -> None:
        """Charge ``message`` to the end-to-end ledger, from its ``origin``
        to its ``target``, and fire ``on_deliver(engine, message)`` once it
        arrives, ``route.latency`` ticks from now."""
        if len(route.nodes) < 2:
            raise ValueError(f"route {route.nodes} needs at least two nodes")
        origin, target, bits = message.origin, message.target, len(message.bits)
        scope, purpose = SignalingScope.END_TO_END, message.purpose.value
        self.ledger.append(LedgerEntry(self.now, bits, scope, purpose, origin, target))
        self.bits_end_to_end += bits
        self.schedule(self.now + route.latency, EventKind.CLASSICAL_DELIVER, message, on_deliver)

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
