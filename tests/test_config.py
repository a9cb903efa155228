"""Config parsing, validation aggregation, grid expansion."""

from pathlib import Path

import pytest
import yaml

from qnetsim.config import (
    _EXPONENT_FLOAT,
    SCENARIOS,
    ConfigError,
    _UniqueKeyLoader,
    load_config,
    parse_config,
)
from reference import WORKLOAD_SEEDS, run_configs

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
    assert config.topology.shortest_classical_route("alice", "bob").latency == 1


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


class _PurePythonLoader(yaml.SafeLoader):
    """PyYAML's pure-Python scanner and parser with the config loader's
    exponent-float resolver: the reference for what libyaml reads."""


_PurePythonLoader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, "-+0123456789")

# Exponent floats with and without a dot, which YAML 1.1 alone reads as
# strings, beside scalars they must not change.
EXPONENT_DOCUMENT = """
params: {a: 1e-3, b: -2E+5, c: 1.5e3, d: +7e0, e: 1.0e-300, f: 1e, g: e3, h: '1e-3', i: 12}
"""


def test_config_loader_reads_what_the_pure_python_loader_reads():
    assert issubclass(_UniqueKeyLoader, yaml.CSafeLoader)
    texts = [EXPONENT_DOCUMENT] + [text for _, text in run_configs(WORKLOAD_SEEDS)]
    assert len(texts) == 1 + 7 + 24
    for text in texts:
        ours = yaml.load(text, Loader=_UniqueKeyLoader)
        # repr tells 1 from 1.0 and True from 1, which == does not.
        assert repr(ours) == repr(yaml.load(text, Loader=_PurePythonLoader))
    params = yaml.load(EXPONENT_DOCUMENT, Loader=_UniqueKeyLoader)["params"]
    assert list(map(type, params.values())) == [float] * 5 + [str] * 3 + [int]
    assert list(params.values())[:5] == [1e-3, -2e5, 1.5e3, 7.0, 1e-300]


@pytest.mark.parametrize(
    "text",
    [
        "scenario: superdense\nparams: {n_trials: 8\nseeds: [1]\n",
        "scenario: superdense\nn\u0153uds: [a, b}\n",
        "scenario: superdense\n\tseeds: [1]\n",
        "params:\n    n_trials: 8\n  seeds: [1]\n",
        "scenario: superdense\nseeds: *x\n",
        "scenario: superdense\n---\nseeds: [1]\n",
    ],
    ids=[
        "unclosed-flow-mapping",
        "unclosed-flow-sequence-after-non-ascii-key",
        "tab-before-key",
        "dedented-key",
        "undefined-alias",
        "two-documents",
    ],
)
def test_yaml_error_location_matches_the_pure_python_loader(tmp_path, text):
    with pytest.raises(yaml.MarkedYAMLError) as expected:
        yaml.load(text, Loader=_PurePythonLoader)
    mark = expected.value.problem_mark
    path = tmp_path / "broken.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    [violation] = info.value.violations
    where = f"at line {mark.line + 1}, column {mark.column + 1}: "
    assert violation.startswith(f"{path}: YAML syntax error {where}")


@pytest.mark.parametrize(
    "text",
    [
        "scenario: superdense\nseeds: [1]\nparams: {n_trials: 8,\n  werner_w: \x01 1.0}\n",
        "scenario: superdense  # caf\u00e9\r\nseeds: [1]\nn\u0153uds: [\u00e9, \x1f]\n",
    ],
    ids=["control-character", "control-character-after-non-ascii"],
)
def test_yaml_reader_error_is_located_by_line_and_column(tmp_path, text):
    # libyaml reports where it met a character YAML forbids as an offset
    # into the stream; the violation gives the line and column instead.
    bad = next(i for i, c in enumerate(text) if c in "\x01\x1f")
    before = text[:bad].replace("\r\n", "\n").split("\n")
    path = tmp_path / "control.yaml"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    [violation] = info.value.violations
    assert violation == (
        f"{path}: YAML syntax error at line {len(before)}, column {len(before[-1]) + 1}: "
        f"unacceptable character #x{ord(text[bad]):04x}: control characters are not allowed"
    )


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
