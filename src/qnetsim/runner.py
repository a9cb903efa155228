"""Experiment runner: calls each prepared cell of a validated config under
every seed and serializes metric rows to CSV.

Row order is deterministic (seeds outer, grid cells inner) and all values
are emitted with full float precision, so identical configs replay to
byte-identical CSV files and traces.  A cell's random stream derives from
its seed and its params label only, never from its place in the sweep, so
adding a sweep entry leaves the rows of the other cells unchanged.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from pathlib import Path
from typing import Any

import numpy as np

from .config import ExperimentConfig
from .engine import EngineAborted, TraceRecord, format_record
from .scenarios import ScenarioResult


MetricsRecord = namedtuple(
    "MetricsRecord",
    "scenario seed params metric value classical_bits_host_to_host classical_bits_end_to_end",
)
MetricsRecord.__doc__ = """One row of ``metrics.csv``: ``scenario`` (str), ``seed``
(int), ``params`` (str), ``metric`` (str), ``value`` (Any), and the
classical bits the run sent, ``classical_bits_host_to_host`` and
``classical_bits_end_to_end`` (int)."""

# The columns of ``metrics.csv``, one per field of a row.
CSV_HEADER = MetricsRecord._fields


def _label_key(label: str) -> int:
    """A params label's UTF-8 bytes read as one big-endian integer.

    It is the same on every run and machine, and distinct labels give
    distinct keys.  NumPy's ``SeedSequence`` hashes seed words of any
    number, so no digest is taken here; ``hashlib`` would load OpenSSL,
    3.6 MB of resident memory, for one key per cell.
    """
    return int.from_bytes(label.encode(), "big")


def _format_value(value: Any) -> str:
    # A NumPy float is a float subclass whose repr on NumPy 2 is
    # "np.float64(...)", and a NumPy bool is no bool subclass.
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, np.floating):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    trace: bool = False,
) -> tuple[list[MetricsRecord], int]:
    """Call every cell's prepared ``run`` under every seed, seeds outer.

    ``parse_config`` prepared the cells when it validated the config, so
    this only runs them.  Returns the metric rows and the number of
    aborted runs.  A run that raises gets a ``status,aborted`` row and an
    ``abort_cause`` row naming the exception, and the remaining runs still
    go.  When ``out_dir`` is given, writes ``metrics.csv`` and, with
    ``trace``, one trace file per run.
    """
    rows: list[MetricsRecord] = []
    aborted = 0
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        for cell_idx, (label, run) in enumerate(config.cells):
            try:
                result = run([seed, _label_key(label)])
            except Exception as exc:  # noqa: BLE001 - one failed run must not lose the sweep
                aborted += 1
                in_engine = isinstance(exc, EngineAborted)
                cause = exc.cause if in_engine else exc
                result = ScenarioResult(
                    [("status", "aborted"), ("abort_cause", f"{type(cause).__name__}: {cause}")],
                    trace=exc.trace if in_engine else (),
                )
            bits = (result.bits_host_to_host, result.bits_end_to_end)
            for metric, value in result.metrics:
                rows.append(MetricsRecord(config.scenario, seed, label, metric, value, *bits))
            if out_path is not None and trace:
                _write_trace(out_path, config.scenario, seed, cell_idx, result.trace)
    if out_path is not None:
        (out_path / "metrics.csv").write_text(csv_text(rows))
    return rows, aborted


def _write_trace(
    out_path: Path,
    scenario: str,
    seed: int,
    cell_idx: int,
    trace: tuple[TraceRecord | str, ...],
) -> None:
    """One line per record or line of ``trace``, formatted as it is written."""
    target = out_path / f"{scenario}_s{seed}_t{cell_idx}.trace"
    with target.open("w") as out:
        for entry in trace:
            out.write(entry if isinstance(entry, str) else format_record(entry))
            out.write("\n")


def csv_text(rows: list[MetricsRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (scenario, seed, params, metric, _format_value(value), h2h, e2e)
        for scenario, seed, params, metric, value, h2h, e2e in rows
    )
    return buffer.getvalue()
