"""Self-tests of the benchmark.  From the repository root:

    PYTHONPATH=src python3 -m pytest benchmark -q
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import oracles
import run
import workloads
import qnetsim.qstate
from qnetsim.config import load_config
from qnetsim.runner import run_experiment

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SEEDS = (0, 1, workloads.HELD_OUT_SEED)
# Distinct inputs: engine_chain_traced reuses engine_chain's.
INPUT_WORKLOADS = ("engine_chain_traced", "protocol_trials", "routing_grid")


def _run_all(workload: str, seed: int, tmp: Path) -> dict[str, bytes]:
    """Run every config of a workload in this process; return its files."""
    outputs = {}
    for name, _, text in workloads.generate(workload, seed):
        (tmp / f"{name}.yaml").write_text(text)
        out = tmp / name
        run_experiment(load_config(tmp / f"{name}.yaml"), out, workload in workloads.ENGINE_TRACE)
        outputs.update({f"{name}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return outputs


@pytest.fixture(scope="module")
def plain_outputs(tmp_path_factory) -> dict[str, dict[str, bytes]]:
    return {w: _run_all(w, 3, tmp_path_factory.mktemp(w)) for w in INPUT_WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    texts = []
    for seed in SEEDS:
        first = [text for _, _, text in workloads.generate(workload, seed)]
        assert first == [text for _, _, text in workloads.generate(workload, seed)]
        texts.append(first)
    assert len({tuple(t) for t in texts}) == len(SEEDS)


def test_traced_workload_shares_inputs():
    assert workloads.generate("engine_chain", 5) == workloads.generate("engine_chain_traced", 5)


@pytest.mark.parametrize("workload", INPUT_WORKLOADS)
def test_every_generated_config_loads(workload, tmp_path):
    for seed in SEEDS:
        for name, spec, text in workloads.generate(workload, seed):
            (tmp_path / f"{name}.yaml").write_text(text)
            config = load_config(tmp_path / f"{name}.yaml")
            assert config.scenario == spec["scenario"]
            assert config.seeds == tuple(spec["seeds"])


@pytest.mark.parametrize("workload", INPUT_WORKLOADS)
def test_outputs_pass_the_oracles(workload, plain_outputs):
    for name, spec, _ in workloads.generate(workload, 3):
        cells, problems = oracles.check_csv(spec, plain_outputs[workload][f"{name}/metrics.csv"].decode())
        assert cells == workloads.cell_count(spec)
        assert problems == []


@pytest.mark.parametrize("workload", INPUT_WORKLOADS)
def test_tracing_only_observes(workload, plain_outputs, tmp_path):
    original = qnetsim.qstate.apply_unitary
    recorder = layers.LayerRecorder()
    recorder.install()
    try:
        assert qnetsim.qstate.apply_unitary is not original
        traced = _run_all(workload, 3, tmp_path)
    finally:
        recorder.remove()
    assert qnetsim.qstate.apply_unitary is original
    assert traced == plain_outputs[workload]
    assert recorder.calls["runner.csv_text"] == len(workloads.generate(workload, 3))
    assert all(t >= 0.0 for t in recorder.self_s.values())


def _perturb(csv_text: str, metric: str, change, where: str = "") -> str:
    rows = list(csv.reader(io.StringIO(csv_text)))
    for row in rows[1:]:
        if row[3] == metric and where in row[2]:
            row[4] = change(row[4])
            break
    else:
        raise AssertionError(f"no {metric} row matching {where!r}")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _shift(delta: float):
    return lambda value: repr(float(value) + delta)


PERTURBATIONS = [
    ("engine_chain_traced", "teleport", "fidelity_min", _shift(-1e-6), "werner_w=0.8"),
    ("engine_chain_traced", "teleport", "fidelity_min", lambda v: "1.0", "werner_w=0.8"),
    ("engine_chain_traced", "teleport", "fidelity_mean", _shift(1e-6), "werner_w=1.0"),
    ("engine_chain_traced", "teleport", "bits_per_teleport", _shift(1.0), ""),
    ("engine_chain_traced", "swap", "fidelity_mean", _shift(1e-6), ""),
    ("engine_chain_traced", "swap", "bits_per_swap", _shift(-1.0), ""),
    ("protocol_trials", "superdense", "success_rate_overall", _shift(-1e-3), "werner_w=1.0"),
    ("protocol_trials", "superdense", "success_rate_overall", _shift(-0.1), "werner_w=0.7"),
    ("protocol_trials", "mac_compare", "throughput", _shift(0.05), "w_state_access"),
    ("protocol_trials", "mac_compare", "collision_rate", _shift(0.01), "w_state_access"),
    ("protocol_trials", "mac_compare", "privacy_ok", lambda v: "0", "w_state_access"),
    ("protocol_trials", "mac_compare", "collision_rate", lambda v: "0.7", "slotted_contention"),
    ("routing_grid", "multipath_routing", "single_path_rate", _shift(1e-6), ""),
    ("routing_grid", "multipath_routing", "merged_rate", lambda v: "0.0", ""),
    ("routing_grid", "multipath_routing", "merged_rate", _shift(-1e-6), "dst=g33"),
    ("routing_grid", "multipath_routing", "dominance_holds", lambda v: "0", ""),
    ("routing_grid", "switch_activation", "chi_serial", _shift(1e-6), ""),
    ("routing_grid", "switch_activation", "chi_switch", _shift(1e-6), "p1=1.0|p2=1.0"),
    ("routing_grid", "switch_activation", "bottleneck_holds", lambda v: "0", ""),
]


@pytest.mark.parametrize("workload, config, metric, change, where", PERTURBATIONS)
def test_checker_catches_a_perturbed_value(workload, config, metric, change, where, plain_outputs):
    spec = next(s for n, s, _ in workloads.generate(workload, 3) if n == config)
    text = plain_outputs[workload][f"{config}/metrics.csv"].decode()
    if metric == "merged_rate" and not where:
        # Only a blocked destination has a merged-rate oracle.
        where = "dst=" + next(
            d for d in spec["sweep"]["dst"]
            if oracles.widest_path_rate(spec["topology"], spec["params"]["src"], d) == 0.0
        )
    _, problems = oracles.check_csv(spec, _perturb(text, metric, change, where))
    assert len(problems) == 1, problems


def _shortest_paths(side: int) -> list[list[tuple[int, int]]]:
    """Every path of right and down steps from (0, 0) to the far corner."""
    paths = [[(0, 0)]]
    for _ in range(2 * (side - 1)):
        paths = [
            path + [step]
            for path in paths
            for step in ((path[-1][0], path[-1][1] + 1), (path[-1][0] + 1, path[-1][1]))
            if max(step) < side
        ]
    return paths


def test_checker_rejects_a_shortest_path_rate(plain_outputs):
    """The widest path to the far corner is longer than a shortest one, so a
    planner that returns the best shortest path fails the oracle."""
    spec = next(s for n, s, _ in workloads.generate("routing_grid", 3) if n == "multipath_routing")
    links = spec["topology"]["quantum_links"]
    p = {frozenset((link["a"], link["b"])): link["channel"]["p"] for link in links}
    widest = oracles.widest_path_rate(spec["topology"], spec["params"]["src"], "g33")
    shortest = 0.0
    for cells in _shortest_paths(workloads.GRID_SIDE):
        names = [f"g{r}{c}" for r, c in cells]
        worst = max(p[frozenset(pair)] for pair in zip(names, names[1:]))
        shortest = max(shortest, oracles.depolarizing_rate(worst))
    assert 0.0 < shortest < widest - 1e-3
    text = plain_outputs["routing_grid"]["multipath_routing/metrics.csv"].decode()
    narrower = _perturb(text, "single_path_rate", lambda v: repr(shortest), "dst=g33")
    _, problems = oracles.check_csv(spec, narrower)
    assert len(problems) == 1 and "widest path" in problems[0], problems


def test_seed_picks_only_a_mirror_of_the_grid():
    def links(seed: int) -> set[tuple[frozenset, float]]:
        spec = next(s for n, s, _ in workloads.generate("routing_grid", seed) if n == "multipath_routing")
        return {(frozenset((l["a"], l["b"])), l["channel"]["p"]) for l in spec["topology"]["quantum_links"]}

    def mirrored(grid: set[tuple[frozenset, float]]) -> set[tuple[frozenset, float]]:
        return {(frozenset(f"g{n[2]}{n[1]}" for n in pair), p) for pair, p in grid}

    grids = {frozenset(links(seed)) for seed in range(8)}
    assert len(grids) == 2
    first, second = grids
    assert mirrored(first) == second


def test_checker_counts_aborted_and_missing_cells(plain_outputs):
    spec = next(s for n, s, _ in workloads.generate("engine_chain_traced", 3) if n == "teleport")
    lines = plain_outputs["engine_chain_traced"]["teleport/metrics.csv"].decode().splitlines()
    first_cell = lines[1].split(",")[:3]
    aborted = [lines[0], ",".join(first_cell + ["status", "aborted", "0", "0"])]
    aborted += [line for line in lines[1:] if line.split(",")[:3] != first_cell]
    _, problems = oracles.check_csv(spec, "\n".join(aborted) + "\n")
    assert len(problems) == 1 and "aborted" in problems[0]
    cells, problems = oracles.check_csv(spec, lines[0] + "\n")
    assert len(problems) == cells == workloads.cell_count(spec)


def test_widest_path_enumeration():
    topology = {
        "nodes": ["a", "b", "c", "d"],
        "quantum_links": [
            {"a": "a", "b": "b", "channel": {"p": 0.1}},
            {"a": "b", "b": "d", "channel": {"p": 0.5}},
            {"a": "a", "b": "c", "channel": {"p": 0.3}},
            {"a": "c", "b": "d", "channel": {"p": 0.3}},
        ],
    }
    assert oracles.widest_path_rate(topology, "a", "d") == oracles.depolarizing_rate(0.3)
    topology["quantum_links"][2]["channel"]["p"] = 1.0
    assert oracles.widest_path_rate(topology, "a", "d") == oracles.depolarizing_rate(0.5)
    topology["quantum_links"][1]["channel"]["p"] = 1.0
    assert oracles.widest_path_rate(topology, "a", "d") == 0.0


def test_metric_names_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    configs = workloads.generate("routing_grid", 0)
    plain = [{"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0, "probe_s": [0.03, 0.04]}]
    kernels = {
        f"qstate.kernel.{k}.n{n}_us": 1.0 for n in layers.KERNEL_QUBITS for k in layers.KERNELS
    }
    traced = [{**plain[0], "layers": layers.LayerRecorder().raw(), "kernels": kernels}]
    for section, metrics in (
        ("end_to_end", run.end_to_end_metrics(plain)),
        ("per_layer", run.per_layer_metrics(configs, plain, traced, 0)),
    ):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert declared == {name: unit for name, (_, unit) in metrics.items()}


def test_kernel_sweep_reports_every_kernel():
    assert set(layers.kernel_sweep()) == {
        f"qstate.kernel.{k}.n{n}_us" for n in layers.KERNEL_QUBITS for k in layers.KERNELS
    }


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "routing_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_times_are_scaled_to_nominal_host_speed():
    rep = {"wall_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 40.0, "probe_s": [0.06, 0.03, 0.03]}
    metrics = run.end_to_end_metrics([rep])
    assert metrics["wall_s"][0] == pytest.approx(2.0 * run.NOMINAL_PROBE_S / 0.04)
    assert metrics["setup_s"][0] == pytest.approx(0.2 * run.NOMINAL_PROBE_S / 0.06)
    assert metrics["peak_rss_mb"][0] == 40.0
