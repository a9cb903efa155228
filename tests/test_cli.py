"""CLI surface and the CSV/trace emission contract."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qnetsim import cli
from qnetsim.cli import main
from qnetsim.config import load_config
from qnetsim.engine import EventEngine, EventKind
from qnetsim.runner import CSV_HEADER, MetricsRecord, csv_text, run_experiment
from qnetsim.scenarios import SCENARIOS, ScenarioResult
from qnetsim.services import routing
from reference import REPO_ROOT


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
        def step(eng, label):
            if fail and label == "step 1":
                raise ConnectionError("far side went dark")

        engine = EventEngine(rng_seed)
        for k in range(2):
            engine.schedule(k, EventKind.PROTOCOL_STEP, f"step {k}", step)
        result = engine.run_until()
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


def test_validate_locates_a_byte_that_is_not_utf8(tmp_path, capsys):
    # 0xE9 is Latin-1 for e-acute; in UTF-8 it starts a sequence the
    # newline after it cannot continue.
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"scenario: superdense\r\nseeds: [1]  # caf\xe9\nparams: {n_trials: 8}\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"invalid: {path}: not UTF-8 at line 2, column 18: byte 0xe9, invalid continuation byte\n"
    )


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


def test_run_into_a_file_prints_one_error_line_before_any_cell(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path, small_teleport_config())
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    for out in (taken, taken / "sub"):
        assert main(["run", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err, err
        assert len(err.splitlines()) == 1, err
    assert calls == []
    assert taken.read_text() == "keep\n"


def test_run_into_an_earlier_runs_output_prints_one_error_line(tmp_path, capsys, monkeypatch):
    # A traced run and then an untraced run with other seeds into the same
    # --out would leave the first run's traces beside the second's csv.
    config = small_teleport_config()
    out_dir = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, config)), "--out", str(out_dir), "--trace"]) == 0
    capsys.readouterr()
    written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert "metrics.csv" in written and "teleport_s3_t0.trace" in written
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: calls.append(args))
    config["seeds"] = [101]
    path = write_config(tmp_path, config, "other.yaml")
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output directory {out_dir} already holds {out_dir / 'metrics.csv'}\n"
    # a trace file alone is refused as well
    (out_dir / "metrics.csv").unlink()
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out_dir / "teleport_s3_t0.trace") in err, err
    assert len(err.splitlines()) == 1, err
    assert calls == []
    written.pop("metrics.csv")
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == written


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
    assert f"invalid: {path}: params: n_nodes: need at least 2 nodes, got 1" in err
    # one violation, not one per protocol cell of the sweep
    assert err.count("invalid:") == 1


PAIR = "\ntopology: {nodes: [a, b], classical_links: [{a: a, b: b, latency: 1}]}\n"
LEFT = "{a: l, b: m, channel: {type: depolarizing, p: 0.1}}"
RIGHT = "{a: m, b: r, channel: {type: depolarizing, p: 0.1}}"
# A 4x4 identity as a kraus-list channel: a two-qubit channel.
KRAUS_ID4 = "{type: kraus-list, kraus: [[%s]]}" % ", ".join(
    "[%s]" % ", ".join("[1, 0]" if i == j else "[0, 0]" for j in range(4)) for i in range(4)
)
# A kraus-list channel whose one operator is 2x4.
KRAUS_2X4 = (
    "{type: kraus-list, kraus: [[[[1, 0], [0, 0], [0, 0], [0, 0]], "
    "[[0, 0], [1, 0], [0, 0], [0, 0]]]]}"
)
MAC = (
    "scenario: mac_compare\n"
    "params: {protocol: slotted_contention, n_nodes: 3, slots: 9, offered_load: 0.5"
)

W_ACCESS = "scenario: mac_compare\nparams: {protocol: w_state_access, n_nodes: 4, offered_load: 0.5"


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
        ("scenario: swap\nparams: {n_swaps: 5}"
         + chain(LEFT.replace("}}", "}, gen_success_prob: 1.0e-300}"), RIGHT),
         "quantum link l-m has gen_success_prob 1e-300, below 2^-56"),
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
        ("scenario: superdense\nparams: {n_trials: 36893488147419103232}",
         "n_trials must be at most 4 (2^63 - 1) + 3, got 36893488147419103232"),
        ("scenario: teleport\nparams: {n_teleports: 5, werner_w: 1.5}" + PAIR,
         "werner_w must be a number in [0, 1], got 1.5"),
        ("scenario: superdense\nparams: {n_trials: 8, werner_w: 1.5}",
         "werner_w must be a number in [0, 1], got 1.5"),
        ("scenario: superdense\nparams: {n_trials: 8, werner_w: 0.3}",
         "werner_w 0.3 must exceed 1/3 for superdense decoding"),
        ("scenario: teleport\nparams: {n_teleports: 5, werner_W: 0.5}" + PAIR,
         "unknown parameter(s) ['werner_W']"),
        ("scenario: mac_compare\nparams: {protocol: w_state_access, n_nodes: 11, slots: 9,"
         " offered_load: 0.5}", "n_nodes: W states span at most 10 nodes, got 11"),
        (W_ACCESS + ", slots: 9223372036854775808}",
         "slots: 9223372036854775808 slots consume 9223372036854775808 W states, more than "
         "the 2^63 - 1 one binomial draw takes"),
        (W_ACCESS + ", slots: 2305843009213693952}",
         "slots: 2305843009213693952 slots consume 2305843009213693952 W states, whose heralds "
         "to 4 nodes total 9223372036854775808 bits, more than 2^63 - 1"),
        (W_ACCESS + ", slots: 4611686018427387903, w_refresh_cost: 1}",
         "slots: 4611686018427387903 slots consume 2305843009213693952 W states, whose heralds "
         "to 4 nodes total 9223372036854775808 bits, more than 2^63 - 1"),
        (MAC.replace("slotted_contention", "aloha") + "}",
         "protocol 'aloha' is not one of ('w_state_access', 'slotted_contention')"),
        ("scenario: mac_compare\nparams: {protocol: slotted_contention, n_nodes: 3, slots: 9,"
         " offered_load: 0.5, carrier_sensing: 'no'}", "carrier_sensing must be true or false"),
        (MAC + ", hidden_pairs: [[0.5, 1]]}", "hidden_pairs[0][0] must be an integer, got 0.5"),
        (MAC + ", hidden_pairs: [[true, 0]]}", "hidden_pairs[0][0] must be an integer, got True"),
        (MAC + ", hidden_pairs: [[0, 1, 2]]}",
         "hidden_pairs[0] must be a list of two integers, got [0, 1, 2]"),
        (MAC + ", hidden_pairs: [1]}", "hidden_pairs[0] must be a list of two integers, got 1"),
        (MAC + ", backoff_window: 5000}", "backoff_window: backoff window 5000 outside [0, 1024]"),
        (MAC + ", hidden_pairs: [[0, 1], [2, 2]]}",
         "hidden_pairs[1]: (2, 2) is not two distinct node indices"),
        (W_ACCESS + ", slots: 0}", "slots: need at least 1 slot, got 0"),
        (W_ACCESS + ", slots: 9, w_refresh_cost: -1}",
         "w_refresh_cost: refresh cost -1 is negative"),
        (MAC + ", backoff_window: -1}", "backoff_window: backoff window -1 outside [0, 1024]"),
        (MAC + ", hidden_pairs: [[0, 9]]}",
         "hidden_pairs[0]: (0, 9) is not two distinct node indices"),
    ],
    ids=[
        "teleport-unknown-dst",
        "swap-unknown-dst",
        "swap-missing-link",
        "swap-two-nodes",
        "swap-dead-link",
        "swap-link-below-geometric-cap",
        "multipath-unknown-dst",
        "multipath-dst-is-src",
        "switch-p1-above-1",
        "teleport-zero-runs",
        "swap-zero-runs",
        "superdense-zero-trials",
        "superdense-bool-trials",
        "superdense-trials-past-binomial-draw",
        "teleport-w-above-1",
        "superdense-w-above-1",
        "superdense-w-below-third",
        "misspelt-parameter",
        "mac-w-state-too-large",
        "mac-w-state-past-binomial-draw",
        "mac-w-state-heralds-past-int64",
        "mac-w-state-refreshed-heralds-past-int64",
        "mac-unknown-protocol",
        "mac-carrier-sensing-not-bool",
        "mac-hidden-pair-fraction",
        "mac-hidden-pair-bool",
        "mac-hidden-pair-triple",
        "mac-hidden-pair-not-a-list",
        "mac-backoff-window-above-cap",
        "mac-hidden-pair-repeats-a-node",
        "mac-zero-slots",
        "mac-negative-refresh-cost",
        "mac-negative-backoff-window",
        "mac-hidden-pair-past-the-nodes",
    ],
)
def test_validate_rejects_cells_run_would_abort_or_misread(tmp_path, capsys, text, message):
    path = tmp_path / "exp.yaml"
    path.write_text("seeds: [1]\n" + text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"invalid: {path}: params: {message}" in err
    assert err.count("invalid:") == 1


@pytest.mark.parametrize(
    "text",
    [
        "scenario: superdense\nparams: {n_trials: 36893488147419103231}",
        W_ACCESS + ", slots: 2305843009213693951}",
        W_ACCESS + ", slots: 4611686018427387902, w_refresh_cost: 1}",
    ],
    ids=["superdense-most-trials", "mac-w-state-most-slots", "mac-w-state-most-slots-refreshed"],
)
def test_largest_counts_validate_accepts_run(tmp_path, text):
    # Each is the largest count whose binomial draw NumPy takes and, for W
    # access on 4 nodes, whose herald total fits a signed 64-bit int.
    path = tmp_path / "exp.yaml"
    path.write_text("seeds: [1]\n" + text)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


SWAP = "scenario: swap\nparams: {n_swaps: 2}"


@pytest.mark.parametrize(
    "text, message",
    [
        (SWAP + chain(LEFT.replace("}}", "}, gen_prob: 0.5}"), RIGHT)
         + "  bogus: 1\n",
         "topology: quantum_links[0]: unknown parameter(s) ['gen_prob']"),
        (SWAP + chain(LEFT, RIGHT) + "  bogus: 1\n",
         "topology: unknown parameter(s) ['bogus']"),
        ("scenario: teleport\nparams: {n_teleports: 5}"
         "\ntopology: {nodes: [a, b], classical_link: [{a: a, b: b, latency: 1}]}\n",
         "topology: unknown parameter(s) ['classical_link']"),
        ("scenario: teleport\nparams: {n_teleports: 5}"
         "\ntopology: {nodes: alice, classical_links: []}\n",
         "topology: nodes must be a list, got 'alice'"),
        ("scenario: teleport\nparams: {n_teleports: 5}"
         + PAIR.replace("latency: 1", "latency: 1.7"),
         "topology: classical_links[0]: latency must be an integer, got 1.7"),
        (SWAP + chain(LEFT, RIGHT.replace("}}", "}, attempt_period: 2.5}")),
         "topology: quantum_links[1]: attempt_period must be an integer, got 2.5"),
        (SWAP + chain(LEFT.replace("}}", "}, gen_success_prob: '0.5'}"), RIGHT),
         "topology: quantum_links[0]: gen_success_prob must be a number in [0, 1], got '0.5'"),
        (SWAP + chain(LEFT.replace("}}", "}, gen_success_prob: true}"), RIGHT),
         "topology: quantum_links[0]: gen_success_prob must be a number in [0, 1], got True"),
        (SWAP + chain(LEFT.replace("p: 0.1", "p: '0.1'"), RIGHT),
         "topology: quantum_links[0]: channel: p must be a number in [0, 1], got '0.1'"),
        (SWAP + chain(LEFT, RIGHT.replace("p: 0.1", "p: 0.1, gamma: 0.5")),
         "topology: quantum_links[1]: channel: unknown parameter(s) ['gamma']"),
        (SWAP + chain("{a: l, b: m, channel: {type: kraus-list, kraus: []}}", RIGHT),
         "topology: quantum_links[0]: channel: kraus: channel needs at least one Kraus operator"),
        (SWAP + chain(LEFT, RIGHT.replace("{type: depolarizing, p: 0.1}", KRAUS_ID4)),
         "topology: quantum_links[1]: channel: a link carries one qubit, so its channel must "
         "be 2x2, got 4x4"),
        ("scenario: multipath_routing\nparams: {src: a, dst: b}\ntopology: {nodes: [a, b], "
         f"quantum_links: [{{a: a, b: b, channel: {KRAUS_ID4}}}]}}\n",
         "topology: quantum_links[0]: channel: a link carries one qubit, so its channel must "
         "be 2x2, got 4x4"),
        ("scenario: multipath_routing\nparams: {src: a, dst: b}\ntopology: {nodes: [a, b], "
         "quantum_links: [{a: a, b: b, channel: {type: kraus-list, "
         "kraus: [[[[.nan, 0], [0, 0]], [[0, 0], [1, 0]]]]}}]}\n",
         "topology: quantum_links[0]: channel: kraus: Kraus operators have a non-finite entry"),
        ("scenario: multipath_routing\nparams: {src: a, dst: b}\ntopology: {nodes: [a, b], "
         "quantum_links: [{a: a, b: b, channel: {type: kraus-list, "
         "kraus: [[[[true, 0], [0, 0]], [[0, 0], [1, 0]]]]}}]}\n",
         "topology: quantum_links[0]: channel: kraus: an entry's [re, im] must be two real "
         "numbers, got [True, 0]"),
        (SWAP + chain(LEFT, RIGHT.replace("{type: depolarizing, p: 0.1}", KRAUS_2X4)),
         "topology: quantum_links[1]: channel: kraus: Kraus operators must share one "
         "2^k x 2^k shape, got (2, 4)"),
        ("scenario: teleport\nparams: {n_teleports: 5}"
         + PAIR.replace("latency: 1}", "latency: 1}, {a: a, b: b, latency: 7}"),
         "topology: classical_links[1]: a-b is linked already"),
        (SWAP + chain(LEFT, LEFT.replace("a: l, b: m", "a: m, b: l"), RIGHT),
         "topology: quantum_links[1]: m-l is linked already"),
        ("scenario: teleport\nparams: {n_teleports: 5}" + PAIR.replace("b: b", "b: ghost"),
         "topology: classical_links[0]: b 'ghost' is not a topology node"),
        ("scenario: teleport\nparams: {n_teleports: 5}" + PAIR.replace("[a, b]", "[a, a, b]"),
         "topology: duplicate node ids in topology"),
        ("scenario: teleport\nparams: {n_teleports: 5}" + PAIR.replace("b: b", "b: a"),
         "topology: classical_links[0]: a and b are both 'a'"),
        ("seeds: [1.5]\nscenario: superdense\nparams: {n_trials: 8}",
         "seeds[0] must be an integer, got 1.5"),
        ("seeds: [true]\nscenario: superdense\nparams: {n_trials: 8}",
         "seeds[0] must be an integer, got True"),
        ("seeds: [-1]\n" + MAC + "}", "seeds[0] must be at least 0, got -1"),
        ("scenario: superdense\nparams: {n_trials: 8, werner_w: 1.0}\nsweep: {werner_w: [0.9]}",
         "sweep: werner_w is also set in params, which the sweep overrides"),
        ("seeds: [5, 7, 5, 5]\nscenario: superdense\nparams: {n_trials: 8}",
         "seeds: repeats 5"),
        ("scenario: superdense\nparams: {n_trials: 8}\nsweep: {werner_w: [0.9, 1.0, 0.90]}",
         "sweep: werner_w repeats 0.9"),
        ("scenario: superdense\nparams: {n_trials: 0, n_trials: 8}\n",
         "repeated key 'n_trials' at line 3, column 23"),
        (SWAP + chain(LEFT.replace("b: m,", "b: m, b: r,"), RIGHT),
         "repeated key 'b' at line 7, column 32"),
        ("scenario: superdense\nparams: {n_trials: 8, when: 2020-13-45}\n",
         "'2020-13-45' is not a date: month must be in 1..12 at line 3, column 29"),
        ("scenario: superdense\nparams: {n_trials: 4, 1: 2}\n",
         "params: parameter names must be strings, got 1"),
        ("scenario: superdense\nparams: {n_trials: 4}\nsweep: {true: [0.9, 1.0]}\n",
         "sweep: parameter names must be strings, got True"),
        ("scenario: superdense\nparams: 5\n", "params: must be a mapping"),
        ("scenario: superdense\nsweep: 3\n", "sweep: must be a mapping"),
        ("scenario: superdense\nsweep: {n_trials: 3}\n",
         "sweep: must map parameter names to nonempty lists"),
    ],
    ids=[
        "misspelt-link-key-and-topology-key",
        "unknown-topology-key",
        "singular-classical-link",
        "nodes-not-a-list",
        "fractional-latency",
        "fractional-attempt-period",
        "gen-prob-string",
        "gen-prob-bool",
        "channel-p-string",
        "channel-unknown-key",
        "channel-no-kraus-operators",
        "swap-two-qubit-link-channel",
        "multipath-two-qubit-link-channel",
        "multipath-nan-kraus-entry",
        "multipath-boolean-kraus-entry",
        "link-channel-not-square",
        "repeated-classical-link",
        "repeated-quantum-link-reversed",
        "link-to-unknown-node",
        "repeated-node",
        "classical-self-link",
        "fractional-seed",
        "bool-seed",
        "negative-seed",
        "param-also-swept",
        "repeated-seed",
        "repeated-sweep-value",
        "repeated-key-in-flow-mapping",
        "repeated-key-in-link-entry",
        "date-that-is-not-a-date",
        "integer-param-name",
        "bool-sweep-name",
        "params-not-a-mapping",
        "sweep-not-a-mapping",
        "sweep-value-not-a-list-without-params",
    ],
)
def test_validate_rejects_misread_topology_seeds_and_sweep(tmp_path, capsys, text, message):
    path = tmp_path / "exp.yaml"
    path.write_text(text if text.startswith("seeds:") else "seeds: [1]\n" + text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"invalid: {path}: {message}" in err
    assert err.count("invalid:") == 1


@pytest.mark.parametrize("p1", ["1e-3", "1E-3", "10e-4"])
def test_yaml_exponent_without_a_dot_is_a_number(tmp_path, capsys, p1):
    # YAML 1.1 would read these as strings; they must run as 1.0e-3 does
    csvs = []
    for name, spelling in enumerate((p1, "1.0e-3")):
        path = tmp_path / f"exp{name}.yaml"
        path.write_text(
            f"seeds: [1]\nscenario: switch_activation\nparams: {{p1: {spelling}, p2: 0.5}}\n"
        )
        assert main(["validate", str(path)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["run", str(path), "--out", str(tmp_path / f"out{name}")]) == 0
        csvs.append((tmp_path / f"out{name}" / "metrics.csv").read_text())
    assert "p1=0.001|p2=0.5" in csvs[0]
    assert csvs[0] == csvs[1]


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
        "engine_fault,3,fail=True,abort_cause,ConnectionError: far side went dark,0,0",
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


def test_csv_text_writes_numpy_scalars_as_their_python_values():
    def rows(values):
        return [MetricsRecord("s", 1, "p", f"m{k}", v, 0, 0) for k, v in enumerate(values)]

    numpy_values = [np.float64(0.1875), np.float64(1 / 3), np.bool_(True), np.bool_(False)]
    python_values = [0.1875, 1 / 3, True, False]
    text = csv_text(rows(numpy_values))
    assert text == csv_text(rows(python_values))
    assert [line.split(",")[4] for line in text.splitlines()[1:]] == [
        "0.1875",
        "0.3333333333333333",
        "1",
        "0",
    ]


def test_mac_compare_row_cardinality(tmp_path):
    data = yaml.safe_load((REPO_ROOT / "configs" / "mac_compare.yaml").read_text())
    # shrink for speed but keep the 2-protocol sweep and all seeds
    data["params"]["slots"] = 500
    config = load_config(write_config(tmp_path, data))
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


def test_each_cell_is_prepared_once_by_load_config(tmp_path, monkeypatch):
    superdense = SCENARIOS["superdense"]
    prepared = []

    def counting_prepare(topology, cell):
        prepared.append(dict(cell))
        return superdense(topology, cell)

    monkeypatch.setitem(SCENARIOS, "superdense", counting_prepare)
    path = write_config(
        tmp_path,
        {
            "scenario": "superdense",
            "seeds": [5, 6],
            "params": {"n_trials": 40},
            "sweep": {"werner_w": [0.8, 1.0]},
        },
    )
    config = load_config(path)
    assert prepared == [{"n_trials": 40, "werner_w": 0.8}, {"n_trials": 40, "werner_w": 1.0}]
    rows, aborted = run_experiment(config)
    assert aborted == 0
    assert len({(r.seed, r.params) for r in rows}) == 4
    assert len(prepared) == 2


@pytest.mark.parametrize("name", sorted(p.stem for p in (REPO_ROOT / "configs").glob("*.yaml")))
def test_one_loaded_config_runs_twice_byte_identical(tmp_path, name):
    # Every seed calls the same prepared runs, so a run must keep no state
    # from one call to the next.
    config = load_config(REPO_ROOT / "configs" / f"{name}.yaml")
    first, _ = run_experiment(config, tmp_path / "one", trace=True)
    second, _ = run_experiment(config, tmp_path / "two", trace=True)
    assert first == second
    files = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "two").iterdir())
    for file in files:
        assert (tmp_path / "one" / file).read_bytes() == (tmp_path / "two" / file).read_bytes()


def grid_config(side):
    """A multipath_routing config from corner to corner of a side x side
    grid of depolarizing links."""
    nodes = [f"n{r}{c}" for r in range(side) for c in range(side)]
    links = [
        {"a": f"n{r}{c}", "b": f"n{r + dr}{c + dc}", "channel": {"type": "depolarizing", "p": 0.1}}
        for r in range(side)
        for c in range(side)
        for dr, dc in ((0, 1), (1, 0))
        if r + dr < side and c + dc < side
    ]
    return {
        "scenario": "multipath_routing",
        "seeds": [1],
        "params": {"src": nodes[0], "dst": nodes[-1]},
        "topology": {"nodes": nodes, "quantum_links": links},
    }


def test_grid_past_the_path_cap_is_rejected_before_it_runs(tmp_path, capsys):
    # Corner to corner, a 5x5 grid has 8 512 simple paths and a 6x6 grid
    # 1 262 816 (OEIS A007764); the cap is 10 000.
    assert main(["validate", str(write_config(tmp_path, grid_config(5), "five.yaml"))]) == 0
    path = write_config(tmp_path, grid_config(6), "six.yaml")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    message = "params: more than 10000 simple paths from src 'n00' to dst 'n55'"
    assert f"invalid: {path}: {message}" in err
    assert err.count("invalid:") == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "invalid:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap, status", [(3, 0), (2, 1)])
def test_path_cap_admits_exactly_its_count(tmp_path, capsys, monkeypatch, cap, status):
    # The shipped routing config has three simple paths from a to f:
    # a-b-f, a-c-f and a-d-e-f.
    monkeypatch.setattr(routing, "_SIMPLE_PATH_CAP", cap)
    path = REPO_ROOT / "configs" / "multipath_routing.yaml"
    assert main(["validate", str(path)]) == status
    if status:
        message = "params: more than 2 simple paths from src 'a' to dst 'f'"
        assert f"invalid: {path}: {message}" in capsys.readouterr().err
    else:
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("cap, status", [(8, 0), (7, 1)])
def test_partial_path_cap_admits_exactly_its_count(tmp_path, capsys, monkeypatch, cap, status):
    # From a to f the shipped routing config's walk takes 8 partial paths:
    # a, a-b, a-b-f, a-c, a-c-f, a-d, a-d-e and a-d-e-f.
    monkeypatch.setattr(routing, "_PARTIAL_PATH_CAP", cap)
    path = REPO_ROOT / "configs" / "multipath_routing.yaml"
    assert main(["validate", str(path)]) == status
    if status:
        message = "params: more than 7 partial paths walked from src 'a' to dst 'f'"
        assert f"invalid: {path}: {message}" in capsys.readouterr().err
    else:
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_worst_pair_of_a_5x5_grid_validates(tmp_path):
    # Of every pair of a 5x5 grid's nodes, two corners of one side make the
    # walk take the most partial paths: 90 398, well below the cap.
    config = grid_config(5)
    config["params"]["dst"] = "n04"
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 0


def cli_in_subprocess(*args):
    """``python -m qnetsim.cli *args`` in its own process, so that a spin
    fails on the 5 s timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qnetsim.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )


def test_destination_off_the_quantum_links_validates_and_runs(tmp_path):
    # The island has no quantum link, so no path reaches it; a walk over
    # every simple path from the corner of a 6x6 grid would not end.
    config = grid_config(6)
    config["topology"]["nodes"].append("island")
    config["params"]["dst"] = "island"
    path = write_config(tmp_path, config)
    validated = cli_in_subprocess("validate", str(path))
    assert validated.returncode == 0, validated.stderr
    assert validated.stdout.startswith("ok:")
    out = tmp_path / "out"
    ran = cli_in_subprocess("run", str(path), "--out", str(out))
    assert ran.returncode == 0, ran.stderr
    rows = (out / "metrics.csv").read_text().splitlines()
    assert "multipath_routing,1,dst=island|src=n00,single_unreachable,1,0,0" in rows
    assert "multipath_routing,1,dst=island|src=n00,merged_rate,0.0,0,0" in rows


def test_dead_end_past_the_partial_path_cap_is_rejected_fast(tmp_path):
    # s and t share a link, and a 6x6 grid hangs off s at its corner: the
    # only path is s-t, but a walk of every partial path into the grid
    # would not end.
    config = grid_config(6)
    config["topology"]["nodes"] += ["s", "t"]
    config["topology"]["quantum_links"] += [
        {"a": "s", "b": "t", "channel": {"type": "depolarizing", "p": 0.1}},
        {"a": "s", "b": "n00", "channel": {"type": "depolarizing", "p": 0.1}},
    ]
    config["params"] = {"src": "s", "dst": "t"}
    path = write_config(tmp_path, config)
    validated = cli_in_subprocess("validate", str(path))
    assert validated.returncode == 1
    message = "params: more than 250000 partial paths walked from src 's' to dst 't'"
    assert f"invalid: {path}: {message}" in validated.stderr
    assert validated.stderr.count("invalid:") == 1
    out = tmp_path / "out"
    ran = cli_in_subprocess("run", str(path), "--out", str(out))
    assert ran.returncode == 1
    assert "invalid:" in ran.stderr
    assert not out.exists()
