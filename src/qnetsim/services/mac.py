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

from ..protocols import W_STATE_MAX_NODES, make_w_state, w_election_round

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


def run_mac_sim(config: MacConfig, seed) -> MacMetrics:
    rng = np.random.default_rng(seed)
    if config.protocol is MacProtocol.W_STATE_ACCESS:
        return _run_w_state_access(config, rng)
    return _run_slotted_contention(config, rng)


def _run_w_state_access(config: MacConfig, rng: np.random.Generator) -> MacMetrics:
    n = config.n_nodes
    successes = np.zeros(n, dtype=np.int64)
    refresh_debt = 0
    idle = 0
    consumed = 0
    one_hot_violations = 0
    for _ in range(config.slots):
        if refresh_debt > 0:
            refresh_debt -= 1
            idle += 1
            continue
        resource = make_w_state(n)
        winner, outcomes = w_election_round(resource, rng)
        consumed += 1
        refresh_debt = config.w_refresh_cost
        if sum(outcomes) != 1:
            one_hot_violations += 1
        # Only the winner may transmit, and only if it has traffic; every
        # other node observed a 0 on its own qubit and nothing else, so no
        # contention message ever crosses the classical plane.
        if rng.random() < config.offered_load:
            successes[winner] += 1
        else:
            idle += 1
    total_success = int(successes.sum())
    return MacMetrics(
        protocol=MacProtocol.W_STATE_ACCESS,
        slots=config.slots,
        throughput=total_success / config.slots,
        collision_rate=0.0,
        fairness=jain_fairness(successes),
        privacy_ok=(one_hot_violations == 0),
        per_node_successes=tuple(int(s) for s in successes),
        successes=total_success,
        collisions=0,
        idle_slots=idle,
        contention_signaling_bits=0,
        herald_bits_host_to_host=consumed * n,
    )


def _run_slotted_contention(config: MacConfig, rng: np.random.Generator) -> MacMetrics:
    n = config.n_nodes
    hidden = {frozenset(pair) for pair in config.hidden_pairs}
    successes = np.zeros(n, dtype=np.int64)
    backoff = np.zeros(n, dtype=np.int64)
    collision_streak = np.zeros(n, dtype=np.int64)
    collisions = 0
    idle = 0
    for _ in range(config.slots):
        ready = backoff == 0
        backoff[~ready] -= 1
        intenders = np.flatnonzero(ready & (rng.random(n) < config.offered_load))
        if config.carrier_sensing and len(intenders) > 1:
            # Within-slot jitter: a node defers if it can hear someone who
            # already started.  Hidden pairs cannot hear each other.
            order = rng.permutation(len(intenders))
            transmitting: list[int] = []
            for idx in order:
                node = int(intenders[idx])
                senses_busy = any(
                    frozenset((node, other)) not in hidden for other in transmitting
                )
                if not senses_busy:
                    transmitting.append(node)
        else:
            transmitting = [int(i) for i in intenders]
        if len(transmitting) == 0:
            idle += 1
        elif len(transmitting) == 1:
            successes[transmitting[0]] += 1
            collision_streak[transmitting[0]] = 0
        else:
            collisions += 1
            for node in transmitting:
                collision_streak[node] += 1
                if config.backoff_window > 0:
                    window = min(
                        config.backoff_window * 2 ** (int(collision_streak[node]) - 1),
                        _BACKOFF_WINDOW_CAP,
                    )
                    backoff[node] = rng.integers(0, window)
    total_success = int(successes.sum())
    return MacMetrics(
        protocol=MacProtocol.SLOTTED_CONTENTION,
        slots=config.slots,
        throughput=total_success / config.slots,
        collision_rate=collisions / config.slots,
        fairness=jain_fairness(successes),
        privacy_ok=False,
        per_node_successes=tuple(int(s) for s in successes),
        successes=total_success,
        collisions=collisions,
        idle_slots=idle,
        contention_signaling_bits=0,
        herald_bits_host_to_host=0,
    )
