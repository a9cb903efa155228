"""Every file a traced run writes, pinned to the recorded table
``golden_outputs.json``.

The runs are the shipped configs and the benchmark workloads' configs at
``WORKLOAD_SEEDS``, as ``reference.run_configs`` lists them.  Each entry
holds the SHA-256 of the run's ``metrics.csv`` and the SHA-256 of its
sorted ``"<trace name> <sha256>"`` lines.  A change that moves any byte of
any run fails here.  When the move is meant, re-record the table with

    PYTHONPATH=src python tests/test_golden_outputs.py

and name each entry that moved, with its reason.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from qnetsim.config import load_config
from qnetsim.runner import run_experiment
from reference import WORKLOAD_SEEDS, run_configs

TABLE = Path(__file__).with_name("golden_outputs.json")
RUNS = dict(run_configs(WORKLOAD_SEEDS))
GOLDEN = json.loads(TABLE.read_text())


def output_digests(text, directory):
    """Run the config ``text`` traced into ``directory`` and digest what it
    wrote: ``metrics.csv``, and the trace files as one sorted list."""
    path = directory / "config.yaml"
    path.write_text(text)
    out = directory / "out"
    run_experiment(load_config(path), out, trace=True)
    traces = hashlib.sha256()
    for trace in sorted(out.glob("*.trace")):
        traces.update(f"{trace.name} {hashlib.sha256(trace.read_bytes()).hexdigest()}\n".encode())
    metrics = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    return {"metrics.csv": metrics, "traces": traces.hexdigest()}


def test_table_has_one_entry_per_run():
    missing = sorted(set(RUNS) - set(GOLDEN))
    stale = sorted(set(GOLDEN) - set(RUNS))
    assert not missing and not stale, f"runs without an entry: {missing}; entries of no run: {stale}"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_writes_its_recorded_bytes(tmp_path, run):
    assert run in GOLDEN, f"{run} has no entry in {TABLE.name}"
    digests = output_digests(RUNS[run], tmp_path)
    moved = [part for part, digest in digests.items() if digest != GOLDEN[run].get(part)]
    assert not moved, f"{run}: {' and '.join(moved)} moved from {TABLE.name}"


if __name__ == "__main__":
    table = {}
    for run, text in RUNS.items():
        with tempfile.TemporaryDirectory() as directory:
            table[run] = output_digests(text, Path(directory))
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
