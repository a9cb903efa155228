"""CLI surface and the CSV/trace emission contract."""

import hashlib
from pathlib import Path

import yaml

from qnetsim.cli import main
from qnetsim.config import load_config
from qnetsim.runner import CSV_HEADER, csv_text, run_experiment

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


def test_aborted_run_yields_nonzero_exit_and_status_row(tmp_path, capsys):
    config = small_teleport_config()
    # sever the classical plane: route lookup inside the handler fails
    config["topology"]["classical_links"] = []
    path = write_config(tmp_path, config)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 1
    text = (out_dir / "metrics.csv").read_text()
    assert "status,aborted" in text


def test_validate_rejects_mac_cell_the_runner_would_reject(tmp_path, capsys):
    config = yaml.safe_load((REPO_ROOT / "configs" / "mac_compare.yaml").read_text())
    config["params"]["n_nodes"] = 1
    path = write_config(tmp_path, config)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "need at least 2 nodes, got 1" in err
    # one violation, not one per protocol cell of the sweep
    assert err.count("invalid:") == 1


def test_failed_cell_aborts_alone_with_its_cause(tmp_path, capsys):
    config = small_teleport_config()
    config["seeds"] = [3]
    config["topology"]["nodes"].append("island")
    config["sweep"] = {"dst": ["bob", "island"]}
    path = write_config(tmp_path, config)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir), "--trace"]) == 1
    assert "1 run(s) aborted" in capsys.readouterr().err
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    bob = [line for line in lines if "dst=bob" in line]
    island = [line for line in lines if "dst=island" in line]
    assert len(bob) == 4 and all("aborted" not in line for line in bob)
    assert island == [
        "teleport,3,dst=island|n_teleports=25,status,aborted,0,0",
        "teleport,3,dst=island|n_teleports=25,abort_cause,"
        "UnreachableError: no classical route from alice to island,0,0",
    ]
    # the aborted cell keeps the trace prefix up to the failing event
    aborted_trace = (out_dir / "teleport_s3_t1.trace").read_text().splitlines()
    assert aborted_trace == ["t=0 seq=0 kind=protocol_step teleport 0"]


def test_scenario_error_outside_engine_becomes_aborted_row(tmp_path):
    config = {
        "scenario": "swap",
        "seeds": [1, 2],
        "params": {"n_swaps": 3},
        "topology": {"nodes": ["a", "b"]},
    }
    rows, aborted = run_experiment(load_config(write_config(tmp_path, config)))
    assert aborted == 2
    causes = [r.value for r in rows if r.metric == "abort_cause"]
    assert causes == ["UnreachableError: swap scenario needs a three-node chain"] * 2


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
