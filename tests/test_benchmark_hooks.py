"""The benchmark's hooks into qnetsim, checked from this suite.

``benchmark/layers.py`` patches the functions listed in its ``TRACED``
table by module and attribute name, so renaming one of them breaks the
benchmark.  The benchmark's own tests are not collected with this suite;
these tests load its files, unchanged, and run them against qnetsim here.
"""

import csv
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import qnetsim  # noqa: F401  (imports every module the tracer patches)
from qnetsim.config import load_config
from qnetsim.runner import csv_text, run_experiment

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_in_qnetsim():
    layers = _load_benchmark_module("layers")
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


def test_routing_grid_multipath_passes_its_oracle(tmp_path, monkeypatch):
    # oracles.py does ``from workloads import cell_count``
    workloads = _load_benchmark_module("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    oracles = _load_benchmark_module("oracles")
    configs = workloads.generate("routing_grid", workloads.HELD_OUT_SEED)
    [(name, spec, text)] = [c for c in configs if c[0] == "multipath_routing"]
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0
    text = csv_text(rows)
    attempted, problems = oracles.check_csv(spec, text)
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
