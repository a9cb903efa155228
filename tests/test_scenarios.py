"""Scenario runners end to end, pinned to closed forms."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

import qnetsim.engine
from qnetsim import runner, scenarios
from qnetsim.config import load_config, parse_config
from qnetsim.engine import ClassicalLink, EventEngine, EventKind, Topology
from qnetsim.protocols import teleport, werner_pair
from qnetsim.qstate import random_pure_state
from qnetsim.runner import run_experiment
from qnetsim.scenarios import SCENARIOS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    # Each trial draws a Haar payload's normals and then one outcome, as
    # teleport does, so the next cell's draws do not shift.
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
        teleport(random_pure_state(per_trial), werner_pair(werner_w, ("a", "c")), per_trial)
    (engine,) = engines
    assert engine.rng.bit_generator.state == per_trial.bit_generator.state


# sha256 of each trace file of configs/teleport.yaml, as the per-trial
# density-matrix path wrote them.
TELEPORT_TRACE_SHA256 = "66cdd31d97bb6bce86db21a7c282d33c8afa46426809c736864fc605d7ffc1a4"
# sha256 of the trace file of configs/swap.yaml, as the engine wrote it
# when it formatted every event into a line as it fired: attempt, step
# and delivery lines.
SWAP_TRACE_SHA256 = "e0919df2fc401864bf92c2c5f5ea69e4b2db6dc529c9b235ff27680d68193d6e"


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
    return SCENARIOS["swap"](config.topology, config.params)([seed, 0])


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


def amplitude_damping_kraus(gamma):
    return [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]


def swap_circuit_oracle(kraus):
    """Born weight and corrected phi+ fidelity of each swap outcome (z, x),
    from a hand-built circuit: the channel on every half of two phi+ pairs,
    then CNOT(1, 2) and H(1) on the middle qubits, read out as z = qubit 1
    and x = qubit 2, and Z^z X^x on qubit 3."""
    phi = np.zeros(4, dtype=complex)
    phi[[0, 3]] = 1 / np.sqrt(2)
    phi = np.outer(phi, phi.conj())
    pair = sum(np.kron(a, b) @ phi @ np.kron(a, b).conj().T for a in kraus for b in kraus)
    joint = np.kron(pair, pair)
    cnot = np.zeros((16, 16))
    for i in range(16):
        cnot[i ^ (((i >> 2) & 1) << 1), i] = 1
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = np.kron(np.kron(np.eye(2), h), np.eye(4)) @ cnot
    after = (u @ joint @ u.conj().T).reshape((2,) * 8)
    x_gate, z_gate = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
    oracle = {}
    for z in (0, 1):
        for x in (0, 1):
            branch = after[:, z, x, :, :, z, x, :].reshape(4, 4)
            weight = float(np.real(np.trace(branch)))
            fid = 0.0
            if weight > 0:
                frame = np.linalg.matrix_power(z_gate, z) @ np.linalg.matrix_power(x_gate, x)
                frame = np.kron(np.eye(2), frame)
                corrected = frame @ (branch / weight) @ frame.conj().T
                fid = float(np.real(np.trace(corrected @ phi)))
            oracle[f"{z}{x}"] = (weight, fid)
    return oracle


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
    oracle = swap_circuit_oracle(kraus)
    for bits, (weight, _) in oracle.items():
        sigma = np.sqrt(weight * (1 - weight) / n_swaps)
        assert abs(m[f"outcome_frac_{bits}"] - weight) <= 5 * sigma, (bits, m)
        if weight == 0.0:
            assert m[f"outcome_frac_{bits}"] == 0.0
    mean = sum(w * f for w, f in oracle.values())
    variance = sum(w * f * f for w, f in oracle.values()) - mean**2
    assert abs(m["fidelity_mean"] - mean) <= 5 * np.sqrt(max(variance, 0.0) / n_swaps) + 1e-12
    assert m["swaps"] == n_swaps
