"""CLI surface and the CSV/trace emission contract."""

import hashlib
from pathlib import Path

import pytest
import yaml

from qnetsim.cli import main
from qnetsim.config import ExperimentConfig, load_config
from qnetsim.engine import EventEngine, EventKind, Topology
from qnetsim.errors import UnreachableError
from qnetsim.runner import CSV_HEADER, csv_text, run_experiment
from qnetsim.scenarios import SCENARIOS, ScenarioResult

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, data, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def small_teleport_config():
    return {
        "scenario": "teleport",
        "seeds": [3, 4],
        "params": {"n_teleports": 25},
        "topology": {
            "nodes": ["alice", "bob"],
            "classical_links": [{"a": "alice", "b": "bob", "latency": 2}],
        },
    }


def engine_fault_scenario(topology, cell):
    """Fake scenario: two engine steps; with ``fail`` the second raises."""
    fail = bool(cell["fail"])

    def run(rng_seed):
        def step(eng, event):
            if fail and event.payload == "step 1":
                raise UnreachableError("far side went dark")

        engine = EventEngine(Topology(("a",)), rng_seed)
        for k in range(2):
            engine.schedule(k, EventKind.PROTOCOL_STEP, payload=f"step {k}", handler=step)
        result = engine.run_until(10)
        return ScenarioResult([("steps", result.events_processed)], trace=result.trace)

    return run


def outside_fault_scenario(topology, cell):
    """Fake scenario that prepares fine and raises before any engine runs."""

    def run(rng_seed):
        raise RuntimeError(f"gave up on seed {rng_seed[0]}")

    return run


def assert_run_rejects(tmp_path, capsys, config, message):
    out_dir = tmp_path / "rejected"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err and message in err
    assert not (out_dir / "metrics.csv").exists()


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "teleport",
        "superdense",
        "swap",
        "switch_activation",
        "mac_compare",
        "multipath_routing",
    ]


def test_validate_accepts_good_config(tmp_path, capsys):
    path = write_config(tmp_path, small_teleport_config())
    assert main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_all_violations(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "nope", "bogus": 1})
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err
    assert "scenario" in err
    assert "seeds" in err


def test_run_writes_csv_with_golden_header(tmp_path, capsys):
    config = write_config(tmp_path, small_teleport_config())
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 0
    csv_path = out_dir / "metrics.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scenario,seed,params,metric,value,classical_bits_host_to_host,classical_bits_end_to_end"
    assert lines[0] == ",".join(CSV_HEADER)
    # 2 seeds x 1 cell x 4 teleport metrics
    assert len(lines) == 1 + 2 * 4


def test_run_twice_is_byte_identical(tmp_path):
    config = write_config(tmp_path, small_teleport_config())
    digests = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        assert main(["run", str(config), "--out", str(out_dir), "--trace"]) == 0
        digests.append(hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest())
        traces = sorted((out_dir).glob("*.trace"))
        assert traces, "trace flag should produce trace files"
    assert digests[0] == digests[1]


def test_run_invalid_config_fails(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "teleport", "seeds": []})
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_aborted_run_yields_nonzero_exit_and_status_row(tmp_path, capsys, monkeypatch):
    config = small_teleport_config()
    # a severed classical plane is caught before any cell runs
    config["topology"]["classical_links"] = []
    assert_run_rejects(tmp_path, capsys, config, "no classical route from src 'alice' to dst 'bob'")
    # a cell that raises while it runs still gets its status row
    monkeypatch.setitem(SCENARIOS, "engine_fault", engine_fault_scenario)
    path = write_config(
        tmp_path, {"scenario": "engine_fault", "seeds": [3], "params": {"fail": True}}
    )
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    assert "status,aborted" in (out_dir / "metrics.csv").read_text()


def test_validate_rejects_mac_cell_the_runner_would_reject(tmp_path, capsys):
    config = yaml.safe_load((REPO_ROOT / "configs" / "mac_compare.yaml").read_text())
    config["params"]["n_nodes"] = 1
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "need at least 2 nodes, got 1" in err
    # one violation, not one per protocol cell of the sweep
    assert err.count("invalid:") == 1


PAIR = "\ntopology: {nodes: [a, b], classical_links: [{a: a, b: b, latency: 1}]}\n"
LEFT = "{a: l, b: m, channel: {type: depolarizing, p: 0.1}}"
RIGHT = "{a: m, b: r, channel: {type: depolarizing, p: 0.1}}"


def chain(*quantum_links):
    """YAML topology of the chain l-m-r with the given quantum links."""
    return (
        "\ntopology:\n  nodes: [l, m, r]\n"
        "  classical_links: [{a: l, b: m, latency: 1}, {a: m, b: r, latency: 1}]\n"
        f"  quantum_links: [{', '.join(quantum_links)}]\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("scenario: teleport\nparams: {n_teleports: 5, dst: ghost}" + PAIR,
         "dst 'ghost' is not a topology node"),
        ("scenario: swap\nparams: {n_swaps: 5, dst: ghost}" + chain(LEFT, RIGHT),
         "dst 'ghost' is not a topology node"),
        ("scenario: swap\nparams: {n_swaps: 5}" + chain(LEFT),
         "no quantum link between mid 'm' and dst 'r'"),
        ("scenario: swap\nparams: {n_swaps: 5}" + PAIR,
         "scenario swap requires a topology of at least 3 nodes"),
        ("scenario: swap\nparams: {n_swaps: 5}"
         + chain(LEFT.replace("}}", "}, gen_success_prob: 0}"), RIGHT),
         "quantum link l-m has gen_success_prob 0"),
        ("scenario: multipath_routing\nparams: {src: a, dst: ghost}" + PAIR,
         "dst 'ghost' is not a topology node"),
        ("scenario: multipath_routing\nparams: {src: a, dst: a}" + PAIR,
         "src and dst are both 'a'"),
        ("scenario: switch_activation\nparams: {p1: 1.5, p2: 0.5}",
         "p1 must be a number in [0, 1], got 1.5"),
        ("scenario: teleport\nparams: {n_teleports: 0}" + PAIR,
         "n_teleports must be at least 1, got 0"),
        ("scenario: swap\nparams: {n_swaps: 0}" + chain(LEFT, RIGHT),
         "n_swaps must be at least 1, got 0"),
        ("scenario: superdense\nparams: {n_trials: 0}",
         "n_trials must be at least 1, got 0"),
        ("scenario: superdense\nparams: {n_trials: true}",
         "n_trials must be an integer, got True"),
        ("scenario: teleport\nparams: {n_teleports: 5, werner_w: 1.5}" + PAIR,
         "werner_w must be a number in [0, 1], got 1.5"),
        ("scenario: superdense\nparams: {n_trials: 8, werner_w: 1.5}",
         "werner_w must be a number in [0, 1], got 1.5"),
        ("scenario: superdense\nparams: {n_trials: 8, werner_w: 0.3}",
         "werner_w 0.3 must exceed 1/3 for superdense decoding"),
        ("scenario: teleport\nparams: {n_teleports: 5, werner_W: 0.5}" + PAIR,
         "unknown parameter(s) ['werner_W']"),
        ("scenario: mac_compare\nparams: {protocol: w_state_access, n_nodes: 11, slots: 9,"
         " offered_load: 0.5}", "W states span at most 10 nodes, got 11"),
        ("scenario: mac_compare\nparams: {protocol: slotted_contention, n_nodes: 3, slots: 9,"
         " offered_load: 0.5, carrier_sensing: 'no'}", "carrier_sensing must be true or false"),
    ],
    ids=[
        "teleport-unknown-dst",
        "swap-unknown-dst",
        "swap-missing-link",
        "swap-two-nodes",
        "swap-dead-link",
        "multipath-unknown-dst",
        "multipath-dst-is-src",
        "switch-p1-above-1",
        "teleport-zero-runs",
        "swap-zero-runs",
        "superdense-zero-trials",
        "superdense-bool-trials",
        "teleport-w-above-1",
        "superdense-w-above-1",
        "superdense-w-below-third",
        "misspelt-parameter",
        "mac-w-state-too-large",
        "mac-carrier-sensing-not-bool",
    ],
)
def test_validate_rejects_cells_run_would_abort_or_misread(tmp_path, capsys, text, message):
    path = tmp_path / "exp.yaml"
    path.write_text("seeds: [1]\n" + text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"invalid: {path}: params: {message}" in err
    assert err.count("invalid:") == 1


def test_failed_cell_aborts_alone_with_its_cause(tmp_path, capsys, monkeypatch):
    config = small_teleport_config()
    config["seeds"] = [3]
    config["topology"]["nodes"].append("island")
    config["sweep"] = {"dst": ["bob", "island"]}
    assert_run_rejects(tmp_path, capsys, config, "no classical route from src 'alice' to dst 'island'")

    monkeypatch.setitem(SCENARIOS, "engine_fault", engine_fault_scenario)
    path = write_config(
        tmp_path, {"scenario": "engine_fault", "seeds": [3], "sweep": {"fail": [False, True]}}
    )
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--trace"]) == 1
    assert "1 run(s) aborted" in capsys.readouterr().err
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert lines[1:] == [
        "engine_fault,3,fail=False,steps,2,0,0",
        "engine_fault,3,fail=True,status,aborted,0,0",
        "engine_fault,3,fail=True,abort_cause,UnreachableError: far side went dark,0,0",
    ]
    # the aborted cell keeps the trace prefix up to the failing event
    aborted_trace = (out_dir / "engine_fault_s3_t1.trace").read_text().splitlines()
    assert aborted_trace == [
        "t=0 seq=0 kind=protocol_step step 0",
        "t=1 seq=1 kind=protocol_step step 1",
    ]


def test_scenario_error_outside_engine_becomes_aborted_row(tmp_path, capsys, monkeypatch):
    config = {
        "scenario": "swap",
        "seeds": [1, 2],
        "params": {"n_swaps": 3},
        "topology": {"nodes": ["a", "b"]},
    }
    assert_run_rejects(tmp_path, capsys, config, "requires a topology of at least 3 nodes")
    # a config built in code skips validation; prepare then fails per cell
    built = ExperimentConfig("swap", (1, 2), {"n_swaps": 3}, Topology(("a", "b")))
    rows, aborted = run_experiment(built)
    assert aborted == 2
    causes = [r.value for r in rows if r.metric == "abort_cause"]
    assert causes == ["ValueError: scenario swap requires a topology of at least 3 nodes"] * 2

    monkeypatch.setitem(SCENARIOS, "outside_fault", outside_fault_scenario)
    path = write_config(tmp_path, {"scenario": "outside_fault", "seeds": [1, 2]})
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 2
    causes = [r.value for r in rows if r.metric == "abort_cause"]
    assert causes == ["RuntimeError: gave up on seed 1", "RuntimeError: gave up on seed 2"]


def test_run_experiment_rows_match_csv_text(tmp_path):
    config_path = write_config(tmp_path, small_teleport_config())
    config = load_config(config_path)
    rows, aborted = run_experiment(config)
    assert aborted == 0
    text = csv_text(rows)
    assert text.startswith(",".join(CSV_HEADER))
    assert text.count("\n") == len(rows) + 1


def test_mac_compare_row_cardinality(tmp_path):
    config = load_config(REPO_ROOT / "configs" / "mac_compare.yaml")
    # shrink for speed but keep the 2-protocol sweep and all seeds
    config.params["slots"] = 500
    rows, aborted = run_experiment(config)
    assert aborted == 0
    groups = {(r.seed, r.params) for r in rows}
    assert len(groups) == len(config.seeds) * 2


def test_switch_activation_emits_chi_metrics(tmp_path):
    path = write_config(
        tmp_path,
        {
            "scenario": "switch_activation",
            "seeds": [1],
            "params": {"p1": 1.0, "p2": 1.0},
        },
    )
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0
    metrics = {r.metric: r.value for r in rows}
    assert metrics["chi_serial"] == 0.0
    assert metrics["chi_switch"] > 0.02
    assert metrics["bottleneck_holds"] is True
