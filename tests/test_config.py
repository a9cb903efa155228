"""Config parsing, validation aggregation, grid expansion."""

from pathlib import Path

import pytest
import yaml

from qnetsim.config import SCENARIOS, load_config, parse_config
from qnetsim.errors import ConfigError

MINIMAL_TELEPORT = {
    "scenario": "teleport",
    "seeds": [1],
    "params": {"n_teleports": 10},
    "topology": {
        "nodes": ["alice", "bob"],
        "classical_links": [{"a": "alice", "b": "bob", "latency": 1}],
    },
}


def test_minimal_teleport_config_is_valid():
    config = parse_config(MINIMAL_TELEPORT)
    assert config.scenario == "teleport"
    assert config.seeds == (1,)
    assert config.topology is not None
    assert config.topology.classical_latency("alice", "bob") == 1


def test_missing_seeds_is_named_in_error():
    bad = dict(MINIMAL_TELEPORT)
    del bad["seeds"]
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert any("seeds" in v for v in info.value.violations)


def test_all_violations_reported_at_once():
    bad = {
        "scenario": "quantum_chess",
        "seeds": [],
        "params": {"unused": 1},
        "bogus_key": True,
    }
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    text = "\n".join(info.value.violations)
    assert len(info.value.violations) >= 3
    assert "scenario" in text
    assert "seeds" in text
    assert "bogus_key" in text


def test_scenario_specific_params_required():
    bad = {"scenario": "superdense", "seeds": [1], "params": {}}
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert any("n_trials" in v for v in info.value.violations)


def test_required_param_satisfied_by_sweep():
    config = parse_config(
        {
            "scenario": "superdense",
            "seeds": [1],
            "sweep": {"n_trials": [100, 200]},
        }
    )
    assert config.sweep == {"n_trials": [100, 200]}


def test_topology_needed_for_routing_scenarios():
    bad = {"scenario": "swap", "seeds": [1], "params": {"n_swaps": 5}}
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert any("topology" in v for v in info.value.violations)


def test_malformed_topology_reported():
    bad = dict(MINIMAL_TELEPORT)
    bad["topology"] = {
        "nodes": ["alice"],
        "classical_links": [{"a": "alice", "b": "ghost", "latency": 1}],
    }
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert any("topology" in v for v in info.value.violations)
    bad["topology"] = ["alice", "bob"]
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert [v for v in info.value.violations if "topology" in v] == [
        "<config>: topology: must be a mapping"
    ]


def test_sweep_must_hold_nonempty_lists():
    bad = dict(MINIMAL_TELEPORT)
    bad["sweep"] = {"werner_w": []}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_grid_expansion_cardinality():
    config = parse_config(
        {
            "scenario": "switch_activation",
            "seeds": [1],
            "params": {"p2": 1.0},
            "sweep": {"p1": [round(0.1 * k, 1) for k in range(11)]},
        }
    )
    labels = [label for label, _ in config.cells]
    assert labels == [f"p1={round(0.1 * k, 1)}|p2=1.0" for k in range(11)]


def test_grid_expansion_orders_cells_deterministically():
    config = parse_config(
        {
            "scenario": "switch_activation",
            "seeds": [1],
            "sweep": {"p2": [0.1, 0.2], "p1": [0.3, 0.4]},
        }
    )
    # sweep names sorted, cartesian product row-major
    assert [label for label, _ in config.cells] == [
        "p1=0.3|p2=0.1",
        "p1=0.3|p2=0.2",
        "p1=0.4|p2=0.1",
        "p1=0.4|p2=0.2",
    ]


def test_yaml_error_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenario: teleport\nseeds: [1\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert any("line" in v for v in info.value.violations)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "absent.yaml")
    assert any("absent.yaml" in v for v in info.value.violations)


def test_all_canned_configs_parse():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.yaml"))
    assert len(paths) == 7
    scenarios = set()
    for path in paths:
        config = load_config(path)
        scenarios.add(config.scenario)
    assert scenarios == set(SCENARIOS)


def test_readme_schema_example_validates():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config schema", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    config = parse_config(yaml.safe_load(block), source="README.md")
    assert config.scenario == "teleport"
    assert config.sweep == {"werner_w": [0.6, 0.8, 1.0]}
    assert config.topology is not None and config.topology.quantum_links
