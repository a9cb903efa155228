"""Scenario runners end to end, pinned to closed forms."""

import hashlib
import math
import time

import numpy as np
import pytest
import yaml

import qnetsim.engine
from qnetsim import runner, scenarios
from qnetsim.channels import ChannelModel, depolarizing_channel
from qnetsim.config import load_config, parse_config
from qnetsim.engine import ClassicalLink, EventEngine, EventKind, QuantumLink, Topology
from qnetsim.protocols import bell_pair_correlations, swap_outcome_table
from qnetsim.runner import run_experiment
from qnetsim.scenarios import SCENARIOS
from reference import (
    CONFIG_DIR,
    amplitude_damping_kraus,
    kraus_from_spec,
    swap_circuit_oracle,
    swap_circuit_problems,
)


def metrics_by_cell(config):
    rows, aborted = run_experiment(parse_config(config))
    assert aborted == 0
    cells = {}
    for row in rows:
        cells.setdefault(row.params, {})[row.metric] = row.value
    return cells


def test_teleport_fidelity_is_werner_closed_form():
    # A Werner resource of weight w teleports every pure state with
    # fidelity (1 + w) / 2, so the mean and the minimum both equal it.
    cells = metrics_by_cell(
        {
            "scenario": "teleport",
            "seeds": [5],
            "params": {"n_teleports": 40},
            "sweep": {"werner_w": [1.0, 0.8, 0.3]},
            "topology": {
                "nodes": ["a", "b", "c"],
                "classical_links": [
                    {"a": "a", "b": "b", "latency": 2},
                    {"a": "b", "b": "c", "latency": 1},
                ],
            },
        }
    )
    assert len(cells) == 3
    for label, m in cells.items():
        w = float(label.split("werner_w=")[1])
        assert m["fidelity_mean"] == pytest.approx((1 + w) / 2, abs=1e-9)
        assert m["fidelity_min"] == pytest.approx((1 + w) / 2, abs=1e-9)
        assert m["bits_per_teleport"] == 2.0


@pytest.mark.parametrize("werner_w", [1.0, 0.8])
def test_teleport_cell_leaves_the_stream_where_per_trial_teleport_does(werner_w, monkeypatch):
    # Each trial draws a Haar payload's normals, real parts then imaginary
    # parts, and then one outcome, as a per-trial teleport of a Haar
    # payload does, so the next cell's draws do not shift.
    engines = []

    class RecordingEngine(EventEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(scenarios, "EventEngine", RecordingEngine)
    topology = Topology(("a", "b", "c"), (ClassicalLink("a", "b", 2), ClassicalLink("b", "c", 1)))
    n_teleports = 60
    SCENARIOS["teleport"](topology, {"n_teleports": n_teleports, "werner_w": werner_w})([17, 3])
    per_trial = np.random.default_rng([17, 3])
    for _ in range(n_teleports):
        per_trial.normal(size=2)
        per_trial.normal(size=2)
        per_trial.random()
    (engine,) = engines
    assert engine.rng.bit_generator.state == per_trial.bit_generator.state


# sha256 of each trace file of configs/teleport.yaml, as the per-trial
# density-matrix path wrote them.
TELEPORT_TRACE_SHA256 = "66cdd31d97bb6bce86db21a7c282d33c8afa46426809c736864fc605d7ffc1a4"
# sha256 of the trace file of configs/swap.yaml, as the engine wrote it
# when it formatted every event into a line as it fired: attempt, step
# and delivery lines.
SWAP_TRACE_SHA256 = "e0919df2fc401864bf92c2c5f5ea69e4b2db6dc529c9b235ff27680d68193d6e"


# sha256 of the metrics.csv of each shipped config whose rows come from a
# Bell measurement, recorded when teleport, swap and superdense decoding
# became closed forms of the pair's correlation matrix.  A change that
# moves any of these rows, even in the last digit, must re-record them.
BELL_METRICS_SHA256 = {
    "teleport": "62ddd7e6e1809a08b9c20bc0ef0c6cb3a5728280b5f5b6337dd3547e5f089fb1",
    "swap": "a5b2d3da83314f2e772faa898fa6fbadb7156743577b7f9d8d45b94cacfb7f60",
    "superdense": "e96b065fd0479afbeac9dbe27905630ec394353c8e5ed139b31a51b18eec44a0",
}


@pytest.mark.parametrize("name", sorted(BELL_METRICS_SHA256))
def test_shipped_bell_configs_write_the_pinned_metrics(tmp_path, name):
    _, aborted = run_experiment(load_config(CONFIG_DIR / f"{name}.yaml"), tmp_path)
    assert aborted == 0
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == BELL_METRICS_SHA256[name]


def test_shipped_teleport_config_writes_the_pinned_traces(tmp_path):
    _, aborted = run_experiment(load_config(CONFIG_DIR / "teleport.yaml"), tmp_path, trace=True)
    assert aborted == 0
    traces = sorted(tmp_path.glob("*.trace"))
    assert [t.name for t in traces] == ["teleport_s101_t0.trace", "teleport_s102_t0.trace"]
    for path in traces:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TELEPORT_TRACE_SHA256, path.name


def test_shipped_swap_config_writes_the_pinned_trace(tmp_path):
    _, aborted = run_experiment(load_config(CONFIG_DIR / "swap.yaml"), tmp_path, trace=True)
    assert aborted == 0
    traces = sorted(tmp_path.glob("*.trace"))
    assert [t.name for t in traces] == ["swap_s21_t0.trace"]
    assert hashlib.sha256(traces[0].read_bytes()).hexdigest() == SWAP_TRACE_SHA256


@pytest.mark.parametrize("name", ["teleport", "swap"])
def test_trace_records_are_formatted_only_when_written(tmp_path, monkeypatch, name):
    config = load_config(CONFIG_DIR / f"{name}.yaml")
    unpatched, _ = run_experiment(config)

    def refuse(record):
        raise AssertionError(f"formatted {record!r}")

    for module in (qnetsim.engine, runner):
        monkeypatch.setattr(module, "format_record", refuse)
    rows, aborted = run_experiment(config, tmp_path / "plain", trace=False)
    assert aborted == 0
    assert rows == unpatched
    assert not list((tmp_path / "plain").glob("*.trace"))
    with pytest.raises(AssertionError, match="formatted"):
        run_experiment(config, tmp_path / "traced", trace=True)


@pytest.mark.parametrize("reverse_links", [False, True])
def test_swap_fidelity_is_depolarizing_closed_form(reverse_links):
    # Depolarizing p on both halves of both pairs leaves a Werner pair of
    # weight (1 - p)^4 after the swap: fidelity (1 + 3 (1 - p)^4) / 4.
    # Written either way round, a link is the same physical pair.
    p = 0.05
    ends = [("l", "m"), ("m", "r")]
    if reverse_links:
        ends = [(b, a) for a, b in ends]
    cells = metrics_by_cell(
        {
            "scenario": "swap",
            "seeds": [9],
            "params": {"n_swaps": 6},
            "topology": {
                "nodes": ["l", "m", "r"],
                "classical_links": [
                    {"a": "l", "b": "m", "latency": 1},
                    {"a": "m", "b": "r", "latency": 1},
                ],
                "quantum_links": [
                    {"a": a, "b": b, "channel": {"type": "depolarizing", "p": p}}
                    for a, b in ends
                ],
            },
        }
    )
    (m,) = cells.values()
    assert m["fidelity_mean"] == pytest.approx((1 + 3 * (1 - p) ** 4) / 4, abs=1e-9)
    assert m["swaps"] == 6
    assert m["bits_per_swap"] == 2.0


def test_cell_rows_do_not_depend_on_sweep_position():
    # A cell's stream derives from its seed and params label, so adding,
    # removing or reordering other sweep entries leaves its rows unchanged.
    def rows_for(werner_ws):
        rows, aborted = run_experiment(
            parse_config(
                {
                    "scenario": "superdense",
                    "seeds": [7],
                    "params": {"n_trials": 400},
                    "sweep": {"werner_w": werner_ws},
                }
            )
        )
        assert aborted == 0
        return [row for row in rows if row.params.endswith("werner_w=0.9")]

    alone = rows_for([0.9])
    assert alone
    assert rows_for([1.0, 0.9]) == alone
    assert rows_for([0.9, 1.0]) == alone


SWAP_CHANNEL_P = 0.05
SWAP_FIDELITY = (1 + 3 * (1 - SWAP_CHANNEL_P) ** 4) / 4


def run_swap_cell(p_left, p_right, n_swaps, seed):
    """The swap scenario's result on an l-m-r chain whose links succeed
    with ``p_left`` and ``p_right`` per attempt, one attempt per tick."""
    config = parse_config(
        {
            "scenario": "swap",
            "seeds": [seed],
            "params": {"n_swaps": n_swaps},
            "topology": {
                "nodes": ["l", "m", "r"],
                "classical_links": [
                    {"a": "l", "b": "m", "latency": 1},
                    {"a": "m", "b": "r", "latency": 2},
                ],
                "quantum_links": [
                    {
                        "a": a,
                        "b": b,
                        "channel": {"type": "depolarizing", "p": SWAP_CHANNEL_P},
                        "gen_success_prob": p,
                    }
                    for a, b, p in (("l", "m", p_left), ("m", "r", p_right))
                ],
            },
        }
    )
    ((_, run),) = config.cells
    return run([seed, 0])


def ready_delays(trace):
    """Ticks from each swap's attempt event to its swap step, read from
    the trace records ``(tick, seq, kind, "swap <k>")``."""
    ticks = {}
    for tick, _, kind, detail in trace:
        if isinstance(detail, str) and detail.startswith("swap "):
            ticks.setdefault(kind, {})[int(detail.split()[1])] = tick
    attempted = ticks[EventKind.ENTANGLEMENT_ATTEMPT]
    ready = ticks[EventKind.PROTOCOL_STEP]
    assert sorted(attempted) == sorted(ready)
    return np.array([ready[k] - attempted[k] for k in sorted(attempted)])


SWAP_STAT_N = 2000


@pytest.fixture(scope="module", params=[(0.3, 0.3), (0.1, 0.6)], ids=["equal-p", "unequal-p"])
def swap_stat_run(request):
    p_left, p_right = request.param
    return p_left, p_right, run_swap_cell(p_left, p_right, SWAP_STAT_N, seed=31)


def test_swap_outcome_fractions_are_uniform(swap_stat_run):
    # The Bell measurement of the middle node gives each of its four
    # outcomes with probability 1/4, whatever the pairs' noise.
    _, _, result = swap_stat_run
    m = dict(result.metrics)
    sigma = np.sqrt(0.25 * 0.75 / SWAP_STAT_N)
    for bits in ("00", "01", "10", "11"):
        assert abs(m[f"outcome_frac_{bits}"] - 0.25) < 5 * sigma, (bits, m)
    assert m["swaps"] == SWAP_STAT_N
    assert m["bits_per_swap"] == 2.0
    assert m["fidelity_mean"] == pytest.approx(SWAP_FIDELITY, abs=1e-9)


def test_swap_ready_delay_is_max_of_two_geometric_waits(swap_stat_run):
    # A swap is ready at the later of its links' first successes, so in
    # attempts its delay is M = max(G_L, G_R) with G geometric, and
    # E[M] = 1/p_L + 1/p_R - 1/(1 - q_L q_R).  Var[M] sums the tail
    # P(M >= m) = 1 - (1 - q_L^(m-1)) (1 - q_R^(m-1)).
    p_left, p_right, result = swap_stat_run
    q_left, q_right = 1 - p_left, 1 - p_right
    mean = 1 / p_left + 1 / p_right - 1 / (1 - q_left * q_right)
    m = np.arange(1, 5000)
    tail = 1 - (1 - q_left ** (m - 1)) * (1 - q_right ** (m - 1))
    variance = float(np.sum((2 * m - 1) * tail)) - mean**2
    attempts = ready_delays(result.trace) + 1
    assert attempts.min() >= 1
    assert abs(attempts.mean() - mean) < 5 * np.sqrt(variance / SWAP_STAT_N)
    # One attempt event, one swap step and one correction delivery per swap.
    assert len(result.trace) == 3 * SWAP_STAT_N


def test_swap_over_near_dead_links_completes_without_a_horizon():
    # At 1e-9 per attempt the first success comes about 1e9 ticks later;
    # the engine jumps there instead of stepping through every tick.
    start = time.perf_counter()
    result = run_swap_cell(1e-9, 1e-9, 5, seed=3)
    elapsed = time.perf_counter() - start
    m = dict(result.metrics)
    assert m["swaps"] == 5
    assert m["fidelity_mean"] == pytest.approx(SWAP_FIDELITY, abs=1e-9)
    assert len(result.trace) == 15
    assert ready_delays(result.trace).max() > 10_000_000
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "kraus",
    [depolarizing_channel(0.05).kraus_ops, amplitude_damping_kraus(0.3), amplitude_damping_kraus(1.0)],
    ids=["depolarizing-0.05", "amplitude-damping-0.3", "amplitude-damping-1.0"],
)
def test_swap_outcome_table_matches_circuit_oracle(kraus):
    # At gamma = 1 both psi outcomes have weight 0: they are never drawn,
    # so their end pair is never normalised and has no fidelity.
    ptm = QuantumLink("l", "m", ChannelModel(tuple(kraus)), 0.5, 1).channel.ptm
    pair = bell_pair_correlations(ptm, ptm)
    weights, fidelities = swap_outcome_table(pair, pair)
    oracle = swap_circuit_oracle(kraus)
    for (z, x), weight, fid in zip([(0, 0), (0, 1), (1, 0), (1, 1)], weights, fidelities):
        oracle_weight, oracle_fid = oracle[f"{z}{x}"]
        assert abs(weight - oracle_weight) <= 1e-12
        if oracle_weight == 0.0:
            assert math.isnan(fid)
        else:
            assert abs(fid - oracle_fid) <= 1e-12


@pytest.mark.parametrize("gamma", [0.3, 1.0])
def test_swap_over_amplitude_damping_links_matches_circuit_oracle(gamma):
    # Amplitude damping leaves a pair that is not Bell-diagonal: the four
    # outcomes have unequal weights and corrected fidelities, and at
    # gamma = 1 both psi outcomes have weight 0 and must never be drawn.
    n_swaps = 4000
    kraus = amplitude_damping_kraus(gamma)
    spec = {
        "type": "kraus-list",
        "kraus": [[[[v.real, v.imag] for v in row] for row in op] for op in kraus],
    }
    cells = metrics_by_cell(
        {
            "scenario": "swap",
            "seeds": [13],
            "params": {"n_swaps": n_swaps},
            "topology": {
                "nodes": ["l", "m", "r"],
                "classical_links": [
                    {"a": "l", "b": "m", "latency": 1},
                    {"a": "m", "b": "r", "latency": 2},
                ],
                "quantum_links": [
                    {"a": a, "b": b, "channel": spec, "gen_success_prob": 0.5}
                    for a, b in (("l", "m"), ("m", "r"))
                ],
            },
        }
    )
    (m,) = cells.values()
    assert swap_circuit_problems(m, kraus, n_swaps) == []


def test_shipped_kraus_list_swap_config_matches_circuit_oracle():
    # The one shipped config whose links write their channel as a Kraus
    # list: amplitude damping at gamma = 0.3, so its pairs are not
    # Bell-diagonal and the four outcomes have unequal weights.
    path = CONFIG_DIR / "swap_amplitude_damping.yaml"
    spec = yaml.safe_load(path.read_text())
    left, right = (link["channel"] for link in spec["topology"]["quantum_links"])
    assert left == right
    kraus = kraus_from_spec(left)
    assert np.allclose(kraus, amplitude_damping_kraus(0.3), rtol=0, atol=1e-15)
    oracle = swap_circuit_oracle(kraus)
    assert np.allclose([w for w, _ in oracle.values()], [0.2725, 0.2275] * 2, rtol=0, atol=1e-12)
    assert np.allclose([f for _, f in oracle.values()], [0.5726, 0.5869] * 2, rtol=0, atol=5e-5)
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0 and len({(row.seed, row.params) for row in rows}) == 1
    m = {row.metric: row.value for row in rows}
    assert swap_circuit_problems(m, kraus, spec["params"]["n_swaps"]) == []
