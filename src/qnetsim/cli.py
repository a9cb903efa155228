"""Command-line harness: run experiments, validate configs, list scenarios."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .runner import run_experiment
from .scenarios import SCENARIOS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnetsim",
        description="Discrete-event simulator of classical networking with quantum services",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run an experiment config")
    run_cmd.add_argument("config", help="path to a YAML experiment config")
    run_cmd.add_argument("--out", required=True, help="output directory for metrics.csv")
    run_cmd.add_argument(
        "--trace", action="store_true", help="also write one event-trace file per run"
    )

    validate_cmd = sub.add_parser("validate", help="validate a config without running it")
    validate_cmd.add_argument("config", help="path to a YAML experiment config")

    sub.add_parser("list-scenarios", help="print the available scenario names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        for name in SCENARIOS:
            print(name)
        return 0

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return 1
    if args.command == "validate":
        print(f"ok: scenario={config.scenario} seeds={list(config.seeds)}")
        return 0

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make output directory {args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    # A run writes only the trace files it asks for, so an earlier run's
    # files left beside the new metrics.csv would describe another run.
    earlier = [out / "metrics.csv"] if (out / "metrics.csv").exists() else []
    earlier += sorted(out.glob("*.trace"))
    if earlier:
        print(f"error: output directory {args.out} already holds {earlier[0]}", file=sys.stderr)
        return 1
    rows, aborted = run_experiment(config, out_dir=args.out, trace=args.trace)
    print(f"wrote {len(rows)} metric rows to {args.out}/metrics.csv")
    if aborted:
        print(f"{aborted} run(s) aborted", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
