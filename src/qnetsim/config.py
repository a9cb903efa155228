"""Experiment configuration: one YAML file per experiment.

A config names a scenario, the seeds to replay it under, scenario
parameters, an optional topology and an optional inline sweep grid.
Validation collects every violation before failing so a bad file is
reported in one pass.  ``parse_config``, the one way to a config,
prepares every cell of the sweep with the scenario's own ``prepare`` and
keeps the ``run`` it returns, so the runner runs what was validated.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Hashable, Iterable
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import yaml

from .channels import ChannelModel, channel_from_spec
from .engine import ClassicalLink, QuantumLink, Topology
from .fields import Fields
from .scenarios import SCENARIOS, Run


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    Carries the full list of violations so callers can report all of
    them at once instead of stopping at the first.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ExperimentConfig(NamedTuple):
    """A validated experiment; ``cells`` holds each sweep cell's params
    label and prepared ``run``, in grid order."""

    scenario: str
    seeds: tuple[int, ...]
    params: dict[str, Any]
    topology: Topology | None
    sweep: dict[str, list]
    cells: tuple[tuple[str, Run], ...]


def _link_channel(entry: Fields) -> ChannelModel:
    """The channel of a quantum link, which carries one qubit."""
    channel = channel_from_spec(entry.value("channel"), entry.at("channel"))
    if channel.dim != 2:
        raise entry.error(
            f"channel: a link carries one qubit, so its channel must be 2x2, "
            f"got {channel.dim}x{channel.dim}"
        )
    return channel


def _parse_topology(raw: Any) -> Topology:
    topology = Fields(raw, "topology")
    nodes = tuple(topology.items("nodes", [], topology.check_text))
    classical_entries = topology.entries("classical_links", [])
    quantum_entries = topology.entries("quantum_links", [])
    classical = tuple(
        ClassicalLink(e.node(nodes, "a"), e.node(nodes, "b"), e.integer("latency", low=1))
        for e in classical_entries
    )
    quantum = tuple(
        QuantumLink(
            e.node(nodes, "a"),
            e.node(nodes, "b"),
            _link_channel(e),
            e.probability("gen_success_prob", 1.0),
            e.integer("attempt_period", 1, low=1),
        )
        for e in quantum_entries
    )
    for fields in (*classical_entries, *quantum_entries, topology):
        fields.done()
    try:
        return Topology(nodes, classical, quantum)
    except ValueError as exc:
        raise topology.error(str(exc)) from exc


def parse_config(data: Any, source: str = "<config>") -> ExperimentConfig:
    """Validate a parsed YAML document; raise with every violation found."""
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be a mapping"])
    violations: list[str] = []

    def read(parse: Callable[[], Any], fallback: Any) -> Any:
        try:
            return parse()
        except ValueError as exc:
            violations.append(str(exc))
            return fallback

    top = Fields(data)
    scenario = top.value("scenario", None)
    prepare = SCENARIOS.get(scenario) if isinstance(scenario, str) else None
    if prepare is None:
        violations.append(f"scenario: {scenario!r} is not one of {tuple(SCENARIOS)}")
    seeds = read(lambda: tuple(top.items("seeds", each=partial(top.check_integer, low=0))), None)
    if seeds == ():
        violations.append("seeds: must be a nonempty list of integers")
    params = read(lambda: top.mapping("params", {}), None)
    sweep = read(lambda: top.mapping("sweep", {}), None)
    if sweep and any(not isinstance(v, list) or len(v) == 0 for v in sweep.values()):
        violations.append("sweep: must map parameter names to nonempty lists")
        sweep = None
    # A params or sweep that failed to parse is reported here; its cells are not.
    grid_read = params is not None and sweep is not None
    params, sweep = params or {}, sweep or {}
    # A name labels its cell's rows and keys its stream, so it is text; a
    # YAML key such as 1 or true is dropped here and reported by name.
    for where, mapping in (("params", params), ("sweep", sweep)):
        for name in mapping:
            if not isinstance(name, str):
                violations.append(f"{where}: parameter names must be strings, got {name!r}")
    params = {k: v for k, v in params.items() if isinstance(k, str)}
    sweep = {k: v for k, v in sweep.items() if isinstance(k, str)}
    for name in sorted(set(params) & set(sweep)):
        violations.append(f"sweep: {name} is also set in params, which the sweep overrides")
    topology_raw = top.value("topology", None)
    topology = None if topology_raw is None else read(lambda: _parse_topology(topology_raw), None)
    read(top.done, None)

    # Cells are told apart by seed and params label, so a repeated seed or
    # sweep value would write a second block of rows under the same key.
    for seed in _repeated(seeds or (), str):
        violations.append(f"seeds: repeats {seed}")
    for name, values in sweep.items():
        for value in _repeated(values, lambda v: params_label({name: v})):
            violations.append(f"sweep: {name} repeats {value}")
    cells: list[tuple[str, Run]] = []
    # A topology that failed to parse is reported above; its cells are not.
    if prepare is not None and grid_read and (topology_raw is None or topology is not None):
        # The sweep grid over the base params, names sorted, row-major.
        names = sorted(sweep)
        for values in itertools.product(*(sweep[n] for n in names)):
            cell = {**params, **dict(zip(names, values))}
            try:
                cells.append((params_label(cell), prepare(topology, cell)))
            except (TypeError, ValueError) as exc:
                if f"params: {exc}" not in violations:
                    violations.append(f"params: {exc}")
    if violations:
        raise ConfigError([f"{source}: {v}" for v in violations])
    return ExperimentConfig(scenario, seeds, params, topology, sweep, tuple(cells))


class _RejectedError(yaml.MarkedYAMLError):
    """A value the loader rejects; ``problem_mark`` locates it."""


class _UniqueKeyLoader(yaml.CSafeLoader):
    """Safe loader, scanning and parsing in libyaml's C code, that rejects a
    key written twice in one mapping, where ``yaml.safe_load`` would keep
    the last value without a word, and reports a date-shaped scalar that
    is not a date where it stands."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # the base loader reports an unhashable key
            if key in seen:
                mark = key_node.start_mark
                raise _RejectedError(problem=f"repeated key {key!r}", problem_mark=mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)

    def construct_yaml_timestamp(self, node):
        try:
            return super().construct_yaml_timestamp(node)
        except ValueError as exc:
            problem = f"{node.value!r} is not a date: {exc}"
            raise _RejectedError(problem=problem, problem_mark=node.start_mark) from exc


_UniqueKeyLoader.add_constructor(
    "tag:yaml.org,2002:timestamp", _UniqueKeyLoader.construct_yaml_timestamp
)
# YAML 1.1 reads 1e-3 as a string; read it as YAML 1.2 does, as a float.
_EXPONENT_FLOAT = re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$")
_UniqueKeyLoader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, "-+0123456789")


# The line breaks YAML counts.
_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


def _located(before: str) -> str:
    """Where the character after the text ``before`` stands, as a YAML
    error mark gives it."""
    lines = _LINE_BREAK.split(before)
    return f" at line {len(lines)}, column {len(lines[-1]) + 1}"


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        where = _located(exc.object[: exc.start].decode("utf-8"))
        byte = exc.object[exc.start]
        raise ConfigError([f"{path}: not UTF-8{where}: byte 0x{byte:02x}, {exc.reason}"]) from exc
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read: {exc}"]) from exc
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = str(exc)
        if isinstance(exc, yaml.reader.ReaderError):
            # libyaml gives a reader error's byte offset into the UTF-8 text.
            where = _located(text.encode("utf-8")[: exc.position].decode("utf-8"))
            problem = problem.partition("\n")[0]
        else:
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        if isinstance(exc, _RejectedError):
            raise ConfigError([f"{path}: {exc.problem}{where}"]) from exc
        raise ConfigError([f"{path}: YAML syntax error{where}: {problem}"]) from exc
    return parse_config(data, source=str(path))


def _repeated(values: Iterable[Any], key: Callable[[Any], str]) -> list[Any]:
    """Each value whose key an earlier value already had, once per key."""
    seen: set[str] = set()
    repeated: dict[str, Any] = {}
    for value in values:
        k = key(value)
        if k in seen:
            repeated.setdefault(k, value)
        seen.add(k)
    return list(repeated.values())


def params_label(cell: dict[str, Any]) -> str:
    """The cell's parameters as ``name=value`` pairs in name order; with the
    seed it names the cell in ``metrics.csv`` and keys its random stream."""
    return "|".join(f"{k}={cell[k]}" for k in sorted(cell))

