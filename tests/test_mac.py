"""W-state channel access versus the slotted contention baseline."""

import itertools
import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from qnetsim.services.mac import (
    _BACKOFF_WINDOW_CAP,
    _BLOCK_UNIFORMS,
    MacConfig,
    MacProtocol,
    _sensing_order,
    jain_fairness,
    run_mac_sim,
)


def w_config(**overrides):
    base = dict(
        n_nodes=4,
        protocol=MacProtocol.W_STATE_ACCESS,
        slots=20_000,
        offered_load=1.0,
        w_refresh_cost=0,
    )
    base.update(overrides)
    return MacConfig(**base)


def contention_config(**overrides):
    base = dict(
        n_nodes=4,
        protocol=MacProtocol.SLOTTED_CONTENTION,
        slots=20_000,
        offered_load=1.0,
        backoff_window=0,
        carrier_sensing=True,
    )
    base.update(overrides)
    return MacConfig(**base)


# -- config validation --------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        w_config(n_nodes=1)
    with pytest.raises(ValueError):
        w_config(slots=0)
    with pytest.raises(ValueError):
        w_config(offered_load=1.5)
    with pytest.raises(ValueError):
        w_config(w_refresh_cost=-1)
    with pytest.raises(ValueError):
        contention_config(hidden_pairs=((0, 0),))
    with pytest.raises(ValueError):
        contention_config(hidden_pairs=((0, 9),))
    with pytest.raises(ValueError):
        contention_config(backoff_window=-1)
    with pytest.raises(ValueError):
        contention_config(backoff_window=_BACKOFF_WINDOW_CAP + 1)


def test_jain_fairness_values():
    assert jain_fairness([0, 0, 0]) == 1.0
    assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0, abs=1e-12)
    assert jain_fairness([1, 1, 0, 0]) == pytest.approx(0.5, abs=1e-12)


# -- W-state access -----------------------------------------------------------


def test_w_access_saturated_has_full_throughput():
    metrics = run_mac_sim(w_config(slots=100_000), seed=10)
    assert metrics.throughput == 1.0
    assert metrics.collision_rate == 0.0
    assert metrics.collisions == 0
    assert metrics.fairness >= 0.99
    assert metrics.privacy_ok


def test_w_access_refresh_cost_halves_throughput():
    metrics = run_mac_sim(w_config(w_refresh_cost=1), seed=11)
    assert abs(metrics.throughput - 0.5) <= 0.01


def test_w_access_throughput_tracks_offered_load():
    metrics = run_mac_sim(w_config(offered_load=0.6, slots=50_000), seed=12)
    assert abs(metrics.throughput - 0.6) < 0.01


def test_w_access_never_signals_contention():
    metrics = run_mac_sim(w_config(), seed=13)
    assert metrics.contention_signaling_bits == 0
    # heralding for W distribution is accounted separately, one bit per
    # qubit of every consumed resource
    assert metrics.herald_bits_host_to_host == 20_000 * 4


def test_w_access_ignores_hidden_pairs():
    base = run_mac_sim(w_config(), seed=14)
    hidden = run_mac_sim(w_config(hidden_pairs=((0, 1), (2, 3))), seed=14)
    assert base == hidden


def test_w_access_win_uniformity_chi_square():
    metrics = run_mac_sim(w_config(slots=100_000), seed=15)
    result = stats.chisquare(metrics.per_node_successes)
    assert result.pvalue >= 0.01


def slot_loop_consumed(slots, refresh):
    """W resources a slot-by-slot run consumes: one in a slot, then
    ``refresh`` idle slots while the next is distributed."""
    consumed = debt = 0
    for _ in range(slots):
        if debt > 0:
            debt -= 1
            continue
        consumed += 1
        debt = refresh
    return consumed


@pytest.mark.parametrize(
    "slots, refresh", [(1, 0), (1, 3), (7, 0), (7, 1), (7, 2), (10, 3), (12, 3), (1001, 4)]
)
def test_w_access_counts_match_slot_loop(slots, refresh):
    n = 3
    saturated = run_mac_sim(w_config(n_nodes=n, slots=slots, w_refresh_cost=refresh), seed=16)
    consumed = slot_loop_consumed(slots, refresh)
    assert saturated.herald_bits_host_to_host == consumed * n
    # with traffic every round sends, so the successes are the rounds
    assert saturated.successes == consumed
    assert saturated.idle_slots == slots - consumed
    silent = run_mac_sim(
        w_config(n_nodes=n, slots=slots, w_refresh_cost=refresh, offered_load=0.0), seed=16
    )
    assert silent.herald_bits_host_to_host == consumed * n
    assert silent.successes == 0
    assert silent.idle_slots == slots
    loaded = run_mac_sim(
        w_config(n_nodes=n, slots=slots, w_refresh_cost=refresh, offered_load=0.5), seed=16
    )
    assert loaded.successes == sum(loaded.per_node_successes) <= consumed
    assert loaded.successes + loaded.idle_slots == slots


# -- slotted contention -------------------------------------------------------


def test_sensing_baseline_is_collision_free_when_all_hear():
    metrics = run_mac_sim(contention_config(), seed=20)
    assert metrics.collision_rate == 0.0
    assert metrics.throughput == pytest.approx(1.0, abs=1e-12)


def test_hidden_pairs_strictly_raise_collisions():
    base = run_mac_sim(contention_config(slots=30_000), seed=21)
    hidden = run_mac_sim(
        contention_config(slots=30_000, hidden_pairs=((0, 1),)), seed=21
    )
    assert hidden.collision_rate > base.collision_rate


def test_aloha_limit_matches_analytic_curve():
    # persistence q = G/n, no sensing, no backoff; oracle G * exp(-G)
    n = 100
    for g in (0.5, 1.0, 1.5, 2.0):
        config = MacConfig(
            n_nodes=n,
            protocol=MacProtocol.SLOTTED_CONTENTION,
            slots=100_000,
            offered_load=g / n,
            backoff_window=0,
            carrier_sensing=False,
        )
        metrics = run_mac_sim(config, seed=22)
        assert abs(metrics.throughput - g * math.exp(-g)) < 0.01, g


def test_backoff_reduces_collision_rate():
    loaded = dict(n_nodes=6, slots=30_000, offered_load=0.8, carrier_sensing=False)
    without = run_mac_sim(contention_config(backoff_window=0, **loaded), seed=23)
    with_bo = run_mac_sim(contention_config(backoff_window=4, **loaded), seed=23)
    assert with_bo.collision_rate < without.collision_rate


def test_metrics_are_internally_consistent():
    metrics = run_mac_sim(
        contention_config(offered_load=0.5, carrier_sensing=False, slots=10_000), seed=24
    )
    assert metrics.throughput + metrics.collision_rate <= 1.0 + 1e-12
    assert 0.0 < metrics.fairness <= 1.0
    assert metrics.successes == sum(metrics.per_node_successes)
    assert metrics.successes + metrics.collisions + metrics.idle_slots <= metrics.slots


def test_same_seed_reproduces_metrics():
    a = run_mac_sim(contention_config(offered_load=0.7, carrier_sensing=False), seed=25)
    b = run_mac_sim(contention_config(offered_load=0.7, carrier_sensing=False), seed=25)
    assert a == b


def test_sensing_without_hidden_pairs_matches_closed_form():
    # Everyone hears everyone: a slot carries a packet unless all n nodes
    # stay silent, and never two.  Without collisions nobody backs off, so
    # slots are independent Bernoulli trials.
    n, load, slots = 3, 0.3, 20_000
    metrics = run_mac_sim(contention_config(n_nodes=n, offered_load=load, slots=slots), seed=26)
    assert metrics.collisions == 0
    expected = 1.0 - (1.0 - load) ** n
    sigma = math.sqrt(expected * (1.0 - expected) / slots)
    assert abs(metrics.throughput - expected) <= 5 * sigma


def test_two_deaf_nodes_match_closed_form():
    # Two nodes that cannot hear each other and never back off: both send
    # with probability load^2, exactly one with 2 load (1 - load).
    load, slots = 0.6, 20_000
    metrics = run_mac_sim(
        contention_config(n_nodes=2, offered_load=load, slots=slots, hidden_pairs=((0, 1),)),
        seed=27,
    )
    for rate, expected in (
        (metrics.collision_rate, load * load),
        (metrics.throughput, 2 * load * (1.0 - load)),
    ):
        sigma = math.sqrt(expected * (1.0 - expected) / slots)
        assert abs(rate - expected) <= 5 * sigma


def test_hidden_pair_order_matches_closed_form():
    # Nodes 0 and 1 cannot hear each other; node 2 hears both.  With no
    # backoff the slots are independent.  0 and 1 collide when both want to
    # send, unless node 2 also does and starts first (probability 1/3), in
    # which case both hear it and defer.
    q, slots = 0.8, 20_000
    metrics = run_mac_sim(
        contention_config(n_nodes=3, offered_load=q, slots=slots, hidden_pairs=((0, 1),)),
        seed=28,
    )
    collision = q * q * (1.0 - q / 3.0)
    for rate, expected in (
        (metrics.collision_rate, collision),
        (metrics.throughput, 1.0 - (1.0 - q) ** 3 - collision),
    ):
        sigma = math.sqrt(expected * (1.0 - expected) / slots)
        assert abs(rate - expected) <= 5 * sigma


class _MorePicks(Exception):
    pass


class _ScriptedPicks:
    """Stands in for the generator: hands out a fixed list of uniforms."""

    def __init__(self, picks):
        self._picks = iter(picks)

    def random(self):
        try:
            return next(self._picks)
        except StopIteration:
            raise _MorePicks from None


# Midpoints of 12 equal cells of [0, 1): int(u * k) is uniform on range(k)
# for every k dividing 12, so for every choice among at most 4 nodes.
_PICK_GRID = [(2 * i + 1) / 24 for i in range(12)]


def sensing_law(want, deaf):
    """Law of the transmitting set ``_sensing_order`` gives, as exact
    fractions, with every sequence of picks enumerated."""
    law = defaultdict(Fraction)
    pending = [[u] for u in _PICK_GRID]
    while pending:
        picks = pending.pop()
        try:
            order = _sensing_order(want, deaf, picks[0], _ScriptedPicks(picks[1:]))
        except _MorePicks:
            pending.extend(picks + [u] for u in _PICK_GRID)
            continue
        assert len(set(order)) == len(order)
        law[frozenset(order)] += Fraction(1, len(_PICK_GRID)) ** len(picks)
    return law


def greedy_deferral_law(want, deaf):
    """Law of the transmitting set when the nodes of ``want`` start in a
    uniformly random order and each defers if it hears a transmitter."""
    nodes = [node for node in range(len(deaf)) if want >> node & 1]
    law = defaultdict(Fraction)
    for order in itertools.permutations(nodes):
        sending = []
        for node in order:
            if all(deaf[node] >> other & 1 for other in sending):
                sending.append(node)
        law[frozenset(sending)] += Fraction(1, math.factorial(len(nodes)))
    return law


def test_sensing_order_is_greedy_deferral_in_a_random_order():
    n = 4
    pairs = list(itertools.combinations(range(n), 2))
    for size in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, size):
            deaf = [0] * n
            for i, j in edges:
                deaf[i] |= 1 << j
                deaf[j] |= 1 << i
            for want in range(1, 1 << n):
                law = sensing_law(want, deaf)
                assert sum(law.values()) == 1
                assert law == greedy_deferral_law(want, deaf), (edges, bin(want))


def reference_slotted_contention(config, seed):
    """The contention loop slot by slot on sets and per-node countdowns.

    It reads the draws in the simulator's layout: one ``rng.random((rows,
    n + 1))`` per block of ``rows`` slots, whose column j < n is node j's
    traffic draw and column n the slot's first sensing pick; then, in the
    order they are needed, one ``rng.random()`` per later choice among two
    or more deaf nodes and one ``rng.integers(0, window)`` per colliding
    node in transmission order.  Returns per-node successes, the collision
    count and every backoff as ``(slot, wait)``.
    """
    rng = np.random.default_rng(seed)
    n = config.n_nodes
    hidden = {(a, b) for i, j in config.hidden_pairs for a, b in ((i, j), (j, i))}
    rows = max(1, _BLOCK_UNIFORMS // (n + 1))
    successes = [0] * n
    countdown = [0] * n
    streak = [0] * n  # collisions since the node's last success
    collisions = 0
    backoffs = []
    for slot in range(config.slots):
        if slot % rows == 0:
            block = rng.random((min(rows, config.slots - slot), n + 1)).tolist()
        draws = block[slot % rows]
        intenders = set()
        for node in range(n):
            if countdown[node]:
                countdown[node] -= 1
            elif draws[node] < config.offered_load:
                intenders.add(node)
        if config.carrier_sensing and len(intenders) > 1:
            transmitting = []
            candidates = sorted(intenders)
            pick = draws[n]
            while candidates:
                node = candidates[int(pick * len(candidates))]
                transmitting.append(node)
                candidates = [other for other in candidates if (other, node) in hidden]
                if len(candidates) > 1:
                    pick = rng.random()
        else:
            transmitting = sorted(intenders)
        if len(transmitting) == 1:
            successes[transmitting[0]] += 1
            streak[transmitting[0]] = 0
        elif len(transmitting) > 1:
            collisions += 1
            for node in transmitting:
                streak[node] += 1
                if config.backoff_window > 0:
                    window = min(config.backoff_window * 2 ** (streak[node] - 1), _BACKOFF_WINDOW_CAP)
                    countdown[node] = int(rng.integers(0, window))
                    backoffs.append((slot, countdown[node]))
    return tuple(successes), collisions, backoffs


@pytest.mark.parametrize("n", [2, 4, 10])
def test_contention_draws_match_numpy_reference(n):
    # Pins the draw stream: the block layout of the traffic draws and
    # sensing picks, and the order of the extra picks and backoff draws.
    hidden_choices = {
        "none": (),
        "one": ((0, 1),),
        # two pairs that share node 1; on two nodes, the one pair twice
        "two": ((0, 1), (1, n - 1)) if n > 2 else ((0, 1), (1, 0)),
    }
    grid = itertools.product(
        (0.0, 0.5, 0.8, 1.0), (0, 2, 3, _BACKOFF_WINDOW_CAP), (True, False), hidden_choices.values()
    )
    for seed, (load, window, sensing, hidden) in enumerate(grid):
        config = contention_config(
            n_nodes=n,
            slots=300,
            offered_load=load,
            backoff_window=window,
            carrier_sensing=sensing,
            hidden_pairs=hidden,
        )
        metrics = run_mac_sim(config, seed)
        successes, collisions, _ = reference_slotted_contention(config, seed)
        assert (metrics.per_node_successes, metrics.collisions) == (successes, collisions), (
            load,
            window,
            sensing,
            hidden,
        )


def test_contention_draws_match_reference_across_blocks():
    # Four blocks of draws on three nodes, with backoffs that end in a
    # later block than the collision that started them.
    rows = _BLOCK_UNIFORMS // 4  # slots per block on three nodes
    config = contention_config(
        n_nodes=3,
        slots=3 * rows + rows // 2,
        offered_load=0.9,
        backoff_window=8,
        hidden_pairs=((0, 1), (1, 2)),
    )
    metrics = run_mac_sim(config, seed=29)
    successes, collisions, backoffs = reference_slotted_contention(config, seed=29)
    assert any(slot // rows < (slot + wait) // rows for slot, wait in backoffs)
    assert collisions > 0
    assert (metrics.per_node_successes, metrics.collisions) == (successes, collisions)


def test_contention_memory_does_not_grow_with_slots():
    # All draws at once would be a (slots, n) float array of 3.2 MB.  A
    # hidden pair under saturation backs off for up to 1023 slots.
    slots, n = 200_000, 2
    config = contention_config(
        n_nodes=n, slots=slots, backoff_window=_BACKOFF_WINDOW_CAP, hidden_pairs=((0, 1),)
    )
    run_mac_sim(contention_config(n_nodes=n, slots=10), seed=30)  # imports numpy.random
    tracemalloc.start()
    try:
        run_mac_sim(config, seed=30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < slots * n * 8
