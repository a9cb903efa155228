"""Medium access control: W-state leader election versus slotted contention.

The W-state scheme grants the slot to the election winner, so at most one
node ever transmits and collisions are structurally impossible; the cost
is ``w_refresh_cost`` idle slots after every consumed W resource while the
next one is distributed.  The contention baseline is a slotted carrier-
sensing protocol with binary exponential backoff; node pairs listed in
``hidden_pairs`` cannot sense each other and collide regardless.  With
sensing disabled and backoff off it reduces to slotted ALOHA.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..protocols import W_STATE_MAX_NODES, w_election_probabilities

_BACKOFF_WINDOW_CAP = 1024


class MacProtocol(enum.Enum):
    W_STATE_ACCESS = "w_state_access"
    SLOTTED_CONTENTION = "slotted_contention"


@dataclass
class MacConfig:
    n_nodes: int
    protocol: MacProtocol
    slots: int
    offered_load: float
    w_refresh_cost: int = 0
    backoff_window: int = 0  # 0 disables backoff (pure slotted ALOHA)
    carrier_sensing: bool = True
    hidden_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.protocol is MacProtocol.W_STATE_ACCESS and self.n_nodes > W_STATE_MAX_NODES:
            raise ValueError(f"W states span at most {W_STATE_MAX_NODES} nodes, got {self.n_nodes}")
        if self.slots < 1:
            raise ValueError(f"need at least 1 slot, got {self.slots}")
        if not 0.0 <= self.offered_load <= 1.0:
            raise ValueError(f"offered load {self.offered_load} outside [0, 1]")
        if self.w_refresh_cost < 0:
            raise ValueError(f"refresh cost {self.w_refresh_cost} is negative")
        if not 0 <= self.backoff_window <= _BACKOFF_WINDOW_CAP:
            raise ValueError(
                f"backoff window {self.backoff_window} outside [0, {_BACKOFF_WINDOW_CAP}]"
            )
        for pair in self.hidden_pairs:
            i, j = pair
            if i == j or not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"hidden pair {pair} is not two distinct node indices")


@dataclass
class MacMetrics:
    protocol: MacProtocol
    slots: int
    throughput: float
    collision_rate: float
    fairness: float
    privacy_ok: bool
    per_node_successes: tuple[int, ...]
    successes: int
    collisions: int
    idle_slots: int
    contention_signaling_bits: int
    herald_bits_host_to_host: int


def jain_fairness(shares) -> float:
    """Jain index ``(sum x)^2 / (n sum x^2)``; 1.0 when nothing was sent."""
    xs = np.asarray(shares, dtype=float)
    total_sq = float(xs.sum()) ** 2
    denom = len(xs) * float((xs**2).sum())
    if denom == 0.0:
        return 1.0
    return total_sq / denom


# Per-node successes, collisions and herald bits of one run of a protocol.
_Counts = tuple[np.ndarray, int, int]


def run_mac_sim(config: MacConfig, seed) -> MacMetrics:
    rng = np.random.default_rng(seed)
    w_access = config.protocol is MacProtocol.W_STATE_ACCESS
    protocol = _run_w_state_access if w_access else _run_slotted_contention
    successes, collisions, herald_bits = protocol(config, rng)
    total_success = int(successes.sum())
    return MacMetrics(
        protocol=config.protocol,
        slots=config.slots,
        throughput=total_success / config.slots,
        collision_rate=collisions / config.slots,
        fairness=jain_fairness(successes),
        # A W-election loser reads a 0 on its own qubit only; a contender's transmission is sensed.
        privacy_ok=w_access,
        per_node_successes=tuple(int(s) for s in successes),
        successes=total_success,
        collisions=collisions,
        idle_slots=config.slots - total_success - collisions,
        # Neither protocol sends a coordination message; W heralds are counted apart.
        contention_signaling_bits=0,
        herald_bits_host_to_host=herald_bits,
    )


def _run_w_state_access(config: MacConfig, rng: np.random.Generator) -> _Counts:
    n = config.n_nodes
    # A W resource is consumed in the first slot and then in every slot
    # after its w_refresh_cost idle refresh slots.  Only the winner may
    # transmit, and only if it has traffic; every other node observed a 0
    # on its own qubit and nothing else, so no contention message ever
    # crosses the classical plane.  The winner and the traffic draw are
    # independent, so the slots that carry a packet are one binomial draw
    # and their winners one multinomial draw.
    consumed = -(-config.slots // (1 + config.w_refresh_cost))
    sent = int(rng.binomial(consumed, config.offered_load))
    successes = rng.multinomial(sent, w_election_probabilities(n))
    return successes, 0, consumed * n


def _run_slotted_contention(config: MacConfig, rng: np.random.Generator) -> _Counts:
    # Per-node state is kept in Python lists: on 2 to 10 nodes a numpy
    # call costs more than the loop it replaces.  The draws are one
    # rng.random(n) per slot, then the sensing order, then one backoff per
    # colliding node in transmission order.
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
    backoff = [0] * n
    # The window of a node's next backoff: base_window after a success,
    # doubled by each collision up to _BACKOFF_WINDOW_CAP.
    window = [base_window] * n
    waiting = 0  # nodes with a nonzero backoff
    collisions = 0
    for _ in range(config.slots):
        draws = rng.random(n).tolist()
        if waiting:
            intenders = []
            for node in range(n):
                if backoff[node]:
                    backoff[node] -= 1
                    if not backoff[node]:
                        waiting -= 1
                elif draws[node] < load:
                    intenders.append(node)
        else:
            # Nobody is backing off, which is every slot without backoff:
            # one comprehension is faster on many nodes (slotted ALOHA).
            intenders = [node for node, draw in enumerate(draws) if draw < load]
        if sensing and len(intenders) > 1:
            # Within-slot jitter: a node defers if it can hear someone who
            # already started.  Shuffling the intenders makes the same swaps
            # as rng.permutation(len(intenders)).
            rng.shuffle(intenders)
            transmitting = []
            busy = 0
            for node in intenders:
                if not busy & ~deaf[node]:
                    transmitting.append(node)
                    busy |= 1 << node
        else:
            transmitting = intenders
        if len(transmitting) == 1:
            node = transmitting[0]
            successes[node] += 1
            window[node] = base_window
        elif transmitting:
            collisions += 1
            if base_window:
                for node in transmitting:
                    backoff[node] = int(rng.integers(0, window[node]))
                    if backoff[node]:
                        waiting += 1
                    window[node] = min(2 * window[node], _BACKOFF_WINDOW_CAP)
    return np.array(successes, dtype=np.int64), collisions, 0
