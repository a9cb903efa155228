"""Experiment configuration: one YAML file per experiment.

A config names a scenario, the seeds to replay it under, scenario
parameters, an optional topology and an optional inline sweep grid.
Validation collects every violation before failing so a bad file is
reported in one pass, and it prepares every cell of the sweep with the
scenario's own ``prepare``, so a config that validates also runs.
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
    sweep: dict[str, list] = field(default_factory=dict)


def _parse_topology(raw: Any, violations: list[str]) -> Topology | None:
    if not isinstance(raw, dict):
        violations.append("topology: must be a mapping")
        return None
    try:
        nodes = tuple(str(n) for n in raw.get("nodes", ()))
        classical = []
        for entry in raw.get("classical_links", ()):
            classical.append(
                ClassicalLink(str(entry["a"]), str(entry["b"]), int(entry["latency"]))
            )
        quantum = []
        for entry in raw.get("quantum_links", ()):
            quantum.append(
                QuantumLink(
                    str(entry["a"]),
                    str(entry["b"]),
                    channel_from_spec(entry["channel"]),
                    float(entry.get("gen_success_prob", 1.0)),
                    int(entry.get("attempt_period", 1)),
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
    prepare = SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if prepare is None:
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

    topology = None
    topology_raw = data.get("topology")
    if topology_raw is not None:
        topology = _parse_topology(topology_raw, violations)

    unknown = set(data) - {"scenario", "seeds", "params", "topology", "sweep"}
    if unknown:
        violations.append(f"unknown top-level keys: {sorted(unknown)}")

    config = ExperimentConfig(
        scenario=scenario,
        seeds=seeds,
        params=params,
        topology=topology,
        sweep={str(k): list(v) for k, v in sweep.items()},
    )
    # A topology that failed to parse is reported above; its cells are not.
    if prepare is not None and (topology_raw is None or topology is not None):
        for cell in expand_grid(config):
            try:
                prepare(topology, cell)
                continue
            except KeyError as exc:
                violation = f"params: scenario {scenario} requires {exc.args[0]!r}"
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
