"""Experiment configuration: one YAML file per experiment.

A config names a scenario, the seeds to replay it under, scenario
parameters, an optional topology and an optional inline sweep grid.
Validation collects every violation before failing so a bad file is
reported in one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .channels import channel_from_spec
from .engine import ClassicalLink, QuantumLink, Topology
from .errors import ConfigError
from .scenarios import SCENARIOS


@dataclass
class ExperimentConfig:
    scenario: str
    seeds: tuple[int, ...]
    params: dict[str, Any] = field(default_factory=dict)
    topology: Topology | None = None
    topology_raw: dict | None = None
    sweep: dict[str, list] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return (
            self.scenario == other.scenario
            and self.seeds == other.seeds
            and self.params == other.params
            and self.topology_raw == other.topology_raw
            and self.sweep == other.sweep
        )


def _parse_topology(raw: dict, violations: list[str]) -> Topology | None:
    try:
        nodes = tuple(str(n) for n in raw.get("nodes", ()))
        classical = []
        for entry in raw.get("classical_links", ()):
            classical.append(
                ClassicalLink(str(entry["a"]), str(entry["b"]), int(entry["latency"]))
            )
        quantum = []
        for entry in raw.get("quantum_links", ()):
            spec = entry["channel"]
            quantum.append(
                QuantumLink(
                    str(entry["a"]),
                    str(entry["b"]),
                    channel_from_spec(spec),
                    float(entry.get("gen_success_prob", 1.0)),
                    int(entry.get("attempt_period", 1)),
                    channel_spec=spec,
                )
            )
        return Topology(nodes, tuple(classical), tuple(quantum))
    except (KeyError, TypeError, ValueError) as exc:
        violations.append(f"topology: {exc}")
        return None


def parse_config(data: Any, source: str = "<config>") -> ExperimentConfig:
    """Validate a parsed YAML document; raise with every violation found."""
    violations: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be a mapping"])

    scenario = data.get("scenario")
    entry = SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if entry is None:
        violations.append(f"scenario: {scenario!r} is not one of {tuple(SCENARIOS)}")

    seeds_raw = data.get("seeds")
    seeds: tuple[int, ...] = ()
    if not isinstance(seeds_raw, (list, tuple)) or len(seeds_raw) == 0:
        violations.append("seeds: must be a nonempty list of integers")
    else:
        try:
            seeds = tuple(int(s) for s in seeds_raw)
        except (TypeError, ValueError):
            violations.append(f"seeds: {seeds_raw!r} contains a non-integer")

    params = data.get("params") or {}
    if not isinstance(params, dict):
        violations.append("params: must be a mapping")
        params = {}

    sweep = data.get("sweep") or {}
    if not isinstance(sweep, dict) or any(
        not isinstance(v, list) or len(v) == 0 for v in sweep.values()
    ):
        violations.append("sweep: must map parameter names to nonempty lists")
        sweep = {}

    missing = [n for n in entry.required if n not in params and n not in sweep] if entry else []
    for name in missing:
        violations.append(f"params: scenario {scenario} requires {name!r}")

    topology = None
    topology_raw = data.get("topology")
    if topology_raw is not None:
        topology = _parse_topology(topology_raw, violations)
    elif entry is not None and entry.needs_topology:
        violations.append(f"topology: scenario {scenario} requires one")

    unknown = set(data) - {"scenario", "seeds", "params", "topology", "sweep"}
    if unknown:
        violations.append(f"unknown top-level keys: {sorted(unknown)}")

    config = ExperimentConfig(
        scenario=scenario,
        seeds=seeds,
        params=params,
        topology=topology,
        topology_raw=topology_raw,
        sweep={str(k): list(v) for k, v in sweep.items()},
    )
    if entry is not None and entry.check_cell is not None and not missing:
        for cell in expand_grid(config):
            try:
                entry.check_cell(cell)
            except (TypeError, ValueError) as exc:
                violation = f"params: {exc}"
                if violation not in violations:
                    violations.append(violation)
    if violations:
        raise ConfigError([f"{source}: {v}" for v in violations])
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read: {exc}"]) from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError([f"{path}: YAML syntax error{where}: {exc}"]) from exc
    return parse_config(data, source=str(path))


def serialize_config(config: ExperimentConfig) -> dict:
    """Plain-dict form that parses back to an equal config."""
    out: dict[str, Any] = {
        "scenario": config.scenario,
        "seeds": list(config.seeds),
    }
    if config.params:
        out["params"] = dict(config.params)
    if config.topology_raw is not None:
        out["topology"] = config.topology_raw
    if config.sweep:
        out["sweep"] = {k: list(v) for k, v in config.sweep.items()}
    return out


def expand_grid(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Cartesian product of the sweep grid merged over the base params.

    Without a sweep this is a single tuple holding the base params.
    """
    if not config.sweep:
        return [dict(config.params)]
    names = sorted(config.sweep)
    cells = []
    for values in itertools.product(*(config.sweep[n] for n in names)):
        cell = dict(config.params)
        cell.update(dict(zip(names, values)))
        cells.append(cell)
    return cells
