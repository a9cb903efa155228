"""Medium access control: W-state leader election versus slotted contention.

The W-state scheme grants the slot to the election winner, so at most one
node ever transmits and collisions are structurally impossible; the cost
is ``w_refresh_cost`` idle slots after every consumed W resource while the
next one is distributed.  The contention baseline is a slotted carrier-
sensing protocol with binary exponential backoff; node pairs listed in
``hidden_pairs`` cannot sense each other and collide regardless.  With
sensing disabled and backoff off it reduces to slotted ALOHA.

The contention loop draws its randomness in blocks of slots, one
``rng.random((rows, n + 1))`` per block: column j < n is node j's traffic
draw and column n the slot's sensing pick.  A backoff is one
``rng.integers(0, window)`` per colliding node, in transmission order, and
a sensing choice among two or more mutually deaf nodes one
``rng.random()``, both drawn when they happen.
"""

from __future__ import annotations

import enum
from collections import namedtuple

import numpy as np

from ..protocols import w_election_probabilities

BACKOFF_WINDOW_CAP = 1024
# Uniforms in one block of contention draws, so the working set does not
# grow with the number of slots.
_BLOCK_UNIFORMS = 2048
# 2**j at column j: a boolean row times these is the int with bit j set.
_BIT_WEIGHTS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class MacProtocol(enum.Enum):
    W_STATE_ACCESS = "w_state_access"
    SLOTTED_CONTENTION = "slotted_contention"


MacConfig = namedtuple(
    "MacConfig",
    "n_nodes protocol slots offered_load w_refresh_cost backoff_window "
    "carrier_sensing hidden_pairs",
    defaults=(0, 0, True, ()),
)
MacConfig.__doc__ = """One MAC run: ``n_nodes`` (int) nodes under ``protocol``
(MacProtocol) for ``slots`` (int) slots at ``offered_load`` (float).  W
access idles ``w_refresh_cost`` (int, default 0) slots after each consumed
W state.  Contention backs off over ``backoff_window`` (int, default 0,
which disables backoff: pure slotted ALOHA), senses the carrier if
``carrier_sensing`` (bool, default True), and the node pairs in
``hidden_pairs`` (tuple[tuple[int, int], ...], default ()) cannot sense
each other.  Plain data: the ``mac_compare`` reader checks every bound."""


def w_resources(slots: int, w_refresh_cost: int) -> int:
    """W resources a W-access run of ``slots`` consumes: one in the first slot
    and one in every slot after its ``w_refresh_cost`` idle refresh slots."""
    return -(-slots // (1 + w_refresh_cost))


MacMetrics = namedtuple(
    "MacMetrics",
    "protocol slots throughput collision_rate fairness privacy_ok per_node_successes "
    "successes collisions idle_slots contention_signaling_bits herald_bits_host_to_host",
)
MacMetrics.__doc__ = """Outcome of one MAC run under ``protocol`` (MacProtocol)
over ``slots`` (int): ``throughput``, ``collision_rate`` and ``fairness``
(float), ``privacy_ok`` (bool), ``per_node_successes`` (tuple[int, ...]),
and the counts ``successes``, ``collisions``, ``idle_slots``,
``contention_signaling_bits`` and ``herald_bits_host_to_host`` (int)."""


def jain_fairness(shares) -> float:
    """Jain index ``(sum x)^2 / (n sum x^2)``; 1.0 when nothing was sent."""
    xs = [float(x) for x in shares]
    total_sq = sum(xs) ** 2
    denom = len(xs) * sum(x * x for x in xs)
    if denom == 0.0:
        return 1.0
    return total_sq / denom


# Per-node successes, collisions and herald bits of one run of a protocol.
_Counts = tuple[list[int], int, int]


def run_mac_sim(config: MacConfig, seed) -> MacMetrics:
    rng = np.random.default_rng(seed)
    w_access = config.protocol is MacProtocol.W_STATE_ACCESS
    protocol = _run_w_state_access if w_access else _run_slotted_contention
    successes, collisions, herald_bits = protocol(config, rng)
    total_success = sum(successes)
    return MacMetrics(
        protocol=config.protocol,
        slots=config.slots,
        throughput=total_success / config.slots,
        collision_rate=collisions / config.slots,
        fairness=jain_fairness(successes),
        # A W-election loser reads a 0 on its own qubit only; a contender's transmission is sensed.
        privacy_ok=w_access,
        per_node_successes=tuple(successes),
        successes=total_success,
        collisions=collisions,
        idle_slots=config.slots - total_success - collisions,
        # Neither protocol sends a coordination message; W heralds are counted apart.
        contention_signaling_bits=0,
        herald_bits_host_to_host=herald_bits,
    )


def _run_w_state_access(config: MacConfig, rng: np.random.Generator) -> _Counts:
    n = config.n_nodes
    # Only the winner of a consumed W resource may transmit, and only if
    # it has traffic; every other node observed a 0 on its own qubit and
    # nothing else, so no contention message ever crosses the classical
    # plane.  The winner and the traffic draw are independent, so the
    # slots that carry a packet are one binomial draw and their winners
    # one multinomial draw.
    consumed = w_resources(config.slots, config.w_refresh_cost)
    sent = int(rng.binomial(consumed, config.offered_load))
    successes = rng.multinomial(sent, w_election_probabilities(n)).tolist()
    return successes, 0, consumed * n


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a boolean ``(rows, n)`` array as an int with bit j set
    where column j is True."""
    n = bits.shape[1]
    packed = (bits[:, :64] @ _BIT_WEIGHTS[: min(n, 64)]).tolist()
    for k in range(64, n, 64):
        word = (bits[:, k : k + 64] @ _BIT_WEIGHTS[: min(n - k, 64)]).tolist()
        packed = [low | high << k for low, high in zip(packed, word)]
    return packed


def _sensing_order(want: int, deaf: list[int], pick: float, rng: np.random.Generator) -> list[int]:
    """The nodes of the bitmask ``want`` that transmit, in the order they start.

    Within-slot jitter: the first to start is uniform among ``want``, chosen
    by the uniform ``pick``.  Every node that hears a transmitter defers, so
    each later one is uniform among what is left of ``want`` that is deaf
    (``deaf[i]`` is the bitmask of the nodes node i cannot hear) to every
    transmitter so far; a choice among two or more draws ``rng.random()``.
    This is the law of greedy deferral in a uniformly random order of
    ``want``: shuffle, then send unless someone audible already sends.
    ``int(u * k)`` is a uniform choice among k up to float rounding, less
    than 2**-53 per choice.
    """
    order = []
    while True:
        rest = want
        for _ in range(int(pick * want.bit_count())):
            rest &= rest - 1  # clear the lowest set bit
        node = (rest & -rest).bit_length() - 1
        order.append(node)
        want &= deaf[node]
        if not want & (want - 1):
            if want:
                order.append(want.bit_length() - 1)
            return order
        pick = rng.random()


def _run_slotted_contention(config: MacConfig, rng: np.random.Generator) -> _Counts:
    # Per-slot state is Python ints used as bitmasks over the nodes and
    # per-node state is Python lists: on 2 to 10 nodes a numpy call costs
    # more than the work it does, so numpy is called once per block of
    # slots and once per backoff or extra sensing pick.
    n = config.n_nodes
    load = config.offered_load
    sensing = config.carrier_sensing
    base_window = config.backoff_window
    # deaf[i] has bit j set when node i cannot hear node j.
    deaf = [0] * n
    for i, j in config.hidden_pairs:
        deaf[i] |= 1 << j
        deaf[j] |= 1 << i
    successes = [0] * n
    # The window of a node's next backoff: base_window after a success,
    # doubled by each collision up to BACKOFF_WINDOW_CAP.
    window = [base_window] * n
    eligible = (1 << n) - 1  # nodes that are not backing off
    release = {}  # slot -> nodes whose backoff ends just before it
    next_free = config.slots  # release's earliest slot; no slot reaches it when empty
    collisions = 0
    rows = max(1, _BLOCK_UNIFORMS // (n + 1))
    for start in range(0, config.slots, rows):
        uniforms = rng.random((min(rows, config.slots - start), n + 1))
        traffic = _pack_rows(uniforms[:, :n] < load)
        picks = uniforms[:, n].tolist()
        for slot, intends, pick in zip(range(start, start + rows), traffic, picks):
            if slot == next_free:
                eligible |= release.pop(slot)
                next_free = min(release, default=config.slots)
            want = intends & eligible
            if want & (want - 1):  # two or more nodes want to send
                order = _sensing_order(want, deaf, pick, rng) if sensing else None
                if order is None or len(order) > 1:
                    collisions += 1
                    if not base_window:
                        continue
                    if order is None:
                        order = [node for node in range(n) if want >> node & 1]
                    for node in order:
                        wait = int(rng.integers(0, window[node]))
                        if wait:
                            bit = 1 << node
                            eligible ^= bit
                            free = slot + wait + 1
                            release[free] = release.get(free, 0) | bit
                            next_free = min(next_free, free)
                        window[node] = min(2 * window[node], BACKOFF_WINDOW_CAP)
                    continue
                node = order[0]
            elif want:
                node = want.bit_length() - 1
            else:
                continue
            successes[node] += 1
            window[node] = base_window
    return successes, collisions, 0
