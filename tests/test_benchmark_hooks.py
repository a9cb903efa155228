"""The benchmark's hooks into qnetsim, checked from this suite.

``benchmark/layers.py`` patches the functions listed in its ``TRACED``
table by module and attribute name, so renaming one of them breaks the
benchmark.  The benchmark's own tests are not collected with this suite;
these tests load its files, unchanged, and run them against qnetsim here.
"""

import csv
import importlib
import io
import json
import math
import sys

# The modules that benchmark/layers.py TRACED names; the tracer patches them.
import qnetsim.channels
import qnetsim.config
import qnetsim.engine
import qnetsim.protocols
import qnetsim.qstate
import qnetsim.runner
import qnetsim.services.mac
import qnetsim.services.phy
import qnetsim.services.routing
from qnetsim.channels import ChannelModel, depolarizing_channel
from qnetsim.config import load_config
from qnetsim.runner import csv_text, run_experiment
from qnetsim.services.routing import (
    route_max_bottleneck,
    route_with_switch_merging,
    simple_paths,
)
from reference import REPO_ROOT, load_benchmark_module, run_configs


def test_every_traced_function_resolves_in_qnetsim():
    layers = load_benchmark_module("layers")
    assert layers.TRACED
    missing = []
    for name, module_name, attr in layers.TRACED:
        owner = importlib.import_module(module_name)
        class_name, _, attr = attr.rpartition(".")
        if class_name:
            owner = getattr(owner, class_name, None)
        # the tracer reads the attribute from the owner's own namespace
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(name)
    assert missing == []


def _workload_config(workload, name, tmp_path):
    """The spec of ``workload``'s config ``name`` at the held-out seed, and
    the path of its YAML text."""
    workloads = load_benchmark_module("workloads")
    configs = workloads.generate(workload, workloads.HELD_OUT_SEED)
    [(spec, text)] = [(spec, text) for config, spec, text in configs if config == name]
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    return spec, path


def _oracle_check(spec, path, monkeypatch):
    """Run the config at ``path`` and check its csv with the benchmark's
    oracle: ``(cells attempted, problems, csv text)``."""
    # oracles.py does ``from workloads import cell_count``
    monkeypatch.setitem(sys.modules, "workloads", load_benchmark_module("workloads"))
    oracles = load_benchmark_module("oracles")
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0
    text = csv_text(rows)
    return (*oracles.check_csv(spec, text), text)


def test_routing_grid_switch_activation_passes_its_oracle(tmp_path, monkeypatch):
    spec, path = _workload_config("routing_grid", "switch_activation", tmp_path)
    attempted, problems, _ = _oracle_check(spec, path, monkeypatch)
    assert attempted == 100 and problems == []


def _count_channel_builds(monkeypatch):
    """The list that every ``ChannelModel`` built from here on joins."""
    built = []
    post_init = ChannelModel.__post_init__

    def counted(channel):
        built.append(channel)
        post_init(channel)

    monkeypatch.setattr(ChannelModel, "__post_init__", counted)
    return built


def test_routing_grid_switch_sweep_builds_each_channel_once(tmp_path, monkeypatch):
    # 100 cells ask for 200 depolarizing channels of at most 20 values of p.
    spec, path = _workload_config("routing_grid", "switch_activation", tmp_path)
    depolarizing_channel.cache_clear()
    built = _count_channel_builds(monkeypatch)
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0 and len(rows) == 500
    p_values = set(spec["sweep"]["p1"]) | set(spec["sweep"]["p2"])
    assert len(built) == len(p_values) <= 20


def test_routing_grid_merge_planner_builds_no_kraus_sets(tmp_path, monkeypatch):
    # The planner folds and rates Pauli transfer matrices only.
    _, path = _workload_config("routing_grid", "multipath_routing", tmp_path)
    config = load_config(path)
    src = config.params["src"]
    singles = {dst: route_max_bottleneck(config.topology, src, dst) for dst in config.sweep["dst"]}
    paths = {dst: simple_paths(config.topology, src, dst) for dst in singles}
    built = _count_channel_builds(monkeypatch)
    modes = {
        route_with_switch_merging(config.topology, paths[dst], single).mode.value
        for dst, single in singles.items()
    }
    assert modes == {"single_path", "superposed_pair"}
    assert built == []


def test_routing_grid_multipath_passes_its_oracle(tmp_path, monkeypatch):
    spec, path = _workload_config("routing_grid", "multipath_routing", tmp_path)
    attempted, problems, text = _oracle_check(spec, path, monkeypatch)
    assert attempted == 2 and problems == []
    # The walled corner is the destination whose every link is fully
    # depolarizing; only a switch-merged pair of dead paths reaches it.
    walled = [
        dst
        for dst in spec["sweep"]["dst"]
        if all(
            link["channel"]["p"] == 1.0
            for link in spec["topology"]["quantum_links"]
            if dst in (link["a"], link["b"])
        )
    ]
    assert len(walled) == 1
    superposed = [
        row["value"]
        for row in csv.DictReader(io.StringIO(text))
        if row["metric"] == "merged_uses_superposition"
        and f"dst={walled[0]}" in row["params"].split("|")
    ]
    assert superposed == ["1"]


def test_protocol_trials_passes_its_oracle(tmp_path, monkeypatch):
    cells = {}
    for name in ("superdense", "mac_compare"):
        spec, path = _workload_config("protocol_trials", name, tmp_path)
        attempted, problems, _ = _oracle_check(spec, path, monkeypatch)
        assert problems == []
        cells[name] = attempted
    assert cells == {"superdense": 3, "mac_compare": 4}


def test_no_run_touches_the_density_matrix_register(tmp_path, monkeypatch):
    # The Bell services compute on correlation matrices, a link's pair is
    # read off its channel's transfer matrix and a Werner pair is built
    # from its own, so no shipped config and no workload's config at the
    # held-out seed builds a register, calls ``werner_pair`` or applies a
    # gate or a channel to a register, in ``prepare`` or in a run.  Each
    # of these, at every binding, raises and is recorded.
    configs = list(run_configs([load_benchmark_module("workloads").HELD_OUT_SEED]))
    touched = []

    def forbid(name):
        def no_register(*args, **kwargs):
            touched.append(name)
            raise AssertionError(f"a run reached {name}")

        return no_register

    register = qnetsim.qstate.QuantumState
    monkeypatch.setattr(register, "__new__", forbid("QuantumState"))
    monkeypatch.setattr(register, "_make", forbid("QuantumState._make"))
    forbidden = {
        qnetsim.qstate.apply_operators: forbid("apply_operators"),
        qnetsim.protocols.werner_pair: forbid("werner_pair"),
    }
    for module in [m for n, m in sys.modules.items() if n.startswith("qnetsim")]:
        for key, value in list(vars(module).items()):
            if callable(value) and value in forbidden:
                monkeypatch.setattr(module, key, forbidden[value])
    assert len(configs) == 13
    path = tmp_path / "config.yaml"
    for name, text in configs:
        path.write_text(text)
        rows, aborted = run_experiment(load_config(path))
        assert aborted == 0 and rows, name
    assert touched == []


def test_kernel_sweep_times_every_declared_kernel():
    # The sweep runs the real qstate and channels kernels; each of the 16
    # kernel metrics the benchmark declares must come out finite and positive.
    declared = {
        metric["name"]
        for metric in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
        if metric["name"].startswith("qstate.kernel.")
    }
    assert len(declared) == 16
    sweep = load_benchmark_module("layers").kernel_sweep()
    assert set(sweep) == declared
    assert all(math.isfinite(value) and value > 0 for value in sweep.values())
