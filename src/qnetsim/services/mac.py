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
        if self.backoff_window < 0:
            raise ValueError(f"backoff window {self.backoff_window} is negative")
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
    n = config.n_nodes
    hidden = {(a, b) for i, j in config.hidden_pairs for a, b in ((i, j), (j, i))}
    successes = np.zeros(n, dtype=np.int64)
    backoff = np.zeros(n, dtype=np.int64)
    collision_streak = np.zeros(n, dtype=np.int64)
    collisions = 0
    for _ in range(config.slots):
        ready = backoff == 0
        backoff[~ready] -= 1
        intenders = (ready & (rng.random(n) < config.offered_load)).nonzero()[0]
        if config.carrier_sensing and len(intenders) > 1:
            # Within-slot jitter: a node defers if it can hear someone who
            # already started.  Hidden pairs cannot hear each other.
            order = rng.permutation(len(intenders))
            transmitting: list[int] = []
            for node in intenders[order].tolist():
                senses_busy = any((node, other) not in hidden for other in transmitting)
                if not senses_busy:
                    transmitting.append(node)
        else:
            transmitting = intenders.tolist()
        if len(transmitting) == 1:
            successes[transmitting[0]] += 1
            collision_streak[transmitting[0]] = 0
        elif len(transmitting) > 1:
            collisions += 1
            for node in transmitting:
                collision_streak[node] += 1
                if config.backoff_window > 0:
                    window = min(
                        config.backoff_window * 2 ** (int(collision_streak[node]) - 1),
                        _BACKOFF_WINDOW_CAP,
                    )
                    backoff[node] = rng.integers(0, window)
    return successes, collisions, 0
