"""W-state channel access versus the slotted contention baseline."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from qnetsim.services.mac import (
    _BACKOFF_WINDOW_CAP,
    MacConfig,
    MacProtocol,
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


def numpy_slotted_contention(config, seed):
    """The contention loop on numpy arrays, kept as the reference for the
    draw stream: per-node successes and the collision count."""
    rng = np.random.default_rng(seed)
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
            order = rng.permutation(len(intenders))
            transmitting = []
            for node in intenders[order].tolist():
                if not any((node, other) not in hidden for other in transmitting):
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
    return tuple(int(s) for s in successes), collisions


@pytest.mark.parametrize("n", [2, 4, 10])
def test_contention_draws_match_numpy_reference(n):
    # Pins the draw stream: the order of the random, shuffle and integers
    # calls, and rng.shuffle of a list making rng.permutation's swaps.
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
        assert (metrics.per_node_successes, metrics.collisions) == numpy_slotted_contention(
            config, seed
        ), (load, window, sensing, hidden)
