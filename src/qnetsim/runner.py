"""Experiment runner: expands a config into (seed, parameter-tuple) cells,
executes the scenario for each cell and serializes metric rows to CSV.

Row order is deterministic (seeds outer, grid cells inner) and all values
are emitted with full float precision, so identical configs replay to
byte-identical CSV files and traces.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .config import ExperimentConfig, expand_grid
from .errors import EngineAborted
from .scenarios import SCENARIOS, ScenarioResult

CSV_HEADER = (
    "scenario",
    "seed",
    "params",
    "metric",
    "value",
    "classical_bits_host_to_host",
    "classical_bits_end_to_end",
)


@dataclass(frozen=True)
class MetricsRecord:
    scenario: str
    seed: int
    params: str
    metric: str
    value: Any
    classical_bits_host_to_host: int
    classical_bits_end_to_end: int


def _params_label(cell: dict[str, Any]) -> str:
    return "|".join(f"{k}={cell[k]}" for k in sorted(cell))


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    trace: bool = False,
) -> tuple[list[MetricsRecord], int]:
    """Run every (seed, grid cell) combination.

    Returns the metric rows and the number of aborted cells.  A cell whose
    scenario raises, in ``prepare`` or in its run, gets a ``status,aborted``
    row and an ``abort_cause`` row naming the exception, and the remaining
    cells still run.  When ``out_dir`` is given, writes ``metrics.csv``
    and, with ``trace``, one trace file per cell.
    """
    prepare = SCENARIOS[config.scenario]
    cells = expand_grid(config)
    rows: list[MetricsRecord] = []
    aborted = 0
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
    for seed in config.seeds:
        for cell_idx, cell in enumerate(cells):
            label = _params_label(cell)
            try:
                result = prepare(config.topology, cell)([seed, cell_idx])
            except Exception as exc:  # noqa: BLE001 - one failed cell must not lose the sweep
                aborted += 1
                in_engine = isinstance(exc, EngineAborted)
                cause = exc.cause if in_engine else exc
                result = ScenarioResult(
                    [("status", "aborted"), ("abort_cause", f"{type(cause).__name__}: {cause}")],
                    trace=exc.trace if in_engine else (),
                )
            for metric, value in result.metrics:
                rows.append(
                    MetricsRecord(
                        config.scenario,
                        seed,
                        label,
                        metric,
                        value,
                        result.bits_host_to_host,
                        result.bits_end_to_end,
                    )
                )
            if out_path is not None and trace:
                _write_trace(out_path, config.scenario, seed, cell_idx, result.trace)
    if out_path is not None:
        (out_path / "metrics.csv").write_text(csv_text(rows))
    return rows, aborted


def _write_trace(
    out_path: Path, scenario: str, seed: int, cell_idx: int, lines: tuple[str, ...]
) -> None:
    target = out_path / f"{scenario}_s{seed}_t{cell_idx}.trace"
    target.write_text("\n".join(lines) + ("\n" if lines else ""))


def csv_text(rows: list[MetricsRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.scenario,
                row.seed,
                row.params,
                row.metric,
                _format_value(row.value),
                row.classical_bits_host_to_host,
                row.classical_bits_end_to_end,
            ]
        )
    return buffer.getvalue()
