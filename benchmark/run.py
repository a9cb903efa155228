"""qnetsim benchmark: seeded workloads, host time end to end and per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qnetsim checkout.  The run generates the
workload's YAML configs from the seed, then starts one fresh
single-threaded Python process per repetition (``rep.py``) until S
seconds have passed, at least ``MIN_REPS`` times.  Every repetition's
``metrics.csv`` is checked against closed forms (``oracles.py``) and must
be byte-identical, trace files included, to the first repetition's.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions.  With ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracles
import workloads

MIN_REPS = 5
# Time of rep.py's speed probe on a host of nominal speed; end-to-end times
# are reported as if measured there.
NOMINAL_PROBE_S = 0.03
REP_TIMEOUT_S = 120
# Pinned for every child: a 6-qubit CNOT takes 40x longer with OpenBLAS's
# default two threads than with one on a two-core machine.
THREAD_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
REP_SCRIPT = Path(__file__).resolve().parent / "rep.py"


class BenchError(Exception):
    pass


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(env: dict, work: Path, out: Path, mode: str) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(REP_SCRIPT), str(work), str(out), mode],
            env=env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition exceeded {REP_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{mode} repetition exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def _check(configs: list[tuple[str, dict, str]], out: Path, reference: dict | None):
    """Oracle-check one repetition; compare its files with ``reference``.

    Returns ``(attempted, failed, problems, outputs)``.
    """
    outputs = _outputs(out)
    attempted = failed = 0
    problems: list[str] = []
    for name, spec, _ in configs:
        csv_text = outputs.get(f"{name}/metrics.csv", b"").decode()
        cells, cell_problems = oracles.check_csv(spec, csv_text)
        config_files = {k: v for k, v in outputs.items() if k.startswith(f"{name}/")}
        ref_files = {k: v for k, v in (reference or {}).items() if k.startswith(f"{name}/")}
        if reference is not None and config_files != ref_files:
            cell_problems = [f"{name}: output differs from the first repetition"] * cells
        attempted += cells
        failed += len(cell_problems)
        problems.extend(cell_problems)
    return attempted, failed, problems, outputs


def _scaled(rep: dict, key: str) -> float:
    """A repetition's time at nominal host speed.

    The host's speed drifts by tens of percent over a minute on a shared
    machine, which no number of repetitions averages out.  The speed probe
    is timed in the same process around the workload, so its ratio to
    ``NOMINAL_PROBE_S`` tracks that drift.  Set-up is scaled by the probe
    right after it, the workload by the mean of all the probes.
    """
    probes = rep["probe_s"]
    probe = probes[0] if key == "setup_s" else statistics.fmean(probes)
    return rep[key] * NOMINAL_PROBE_S / probe


def end_to_end_metrics(plain: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the untraced repetitions."""
    return {
        "wall_s": (statistics.median(_scaled(r, "wall_s") for r in plain), "s"),
        "setup_s": (statistics.median(_scaled(r, "setup_s") for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer_metrics(
    configs: list[tuple[str, dict, str]], plain: list[dict], traced: list[dict], trace_bytes: int
) -> dict[str, tuple[float, str]]:
    """Layer counts and times from the traced repetitions, plus the runner's
    cell rate and the tracing overhead against the untraced ones."""
    wall = statistics.median(_scaled(r, "wall_s") for r in plain)
    traced_wall = statistics.median(_scaled(r, "wall_s") for r in traced)
    cells = sum(workloads.cell_count(spec) for _, spec, _ in configs)
    metrics = layers.layer_metrics([r["layers"] for r in traced])
    for name in traced[0]["kernels"]:
        metrics[name] = (statistics.median(r["kernels"][name] for r in traced), "us")
    metrics["runner.cells"] = (cells, "count")
    metrics["runner.cells_per_s"] = (cells / wall, "1/s")
    metrics["runner.trace_bytes"] = (trace_bytes, "B")
    metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "ratio")
    return metrics


def run(args: argparse.Namespace, root: Path, work: Path) -> dict:
    configs = workloads.generate(args.workload, args.seed)
    work.mkdir(parents=True)
    digest = hashlib.sha256()
    for name, _, text in configs:
        (work / f"{name}.yaml").write_text(text)
        digest.update(f"{name}.yaml\n{text}".encode())
    (work / "manifest.json").write_text(
        json.dumps(
            {
                "configs": [name for name, _, _ in configs],
                "engine_trace": args.workload in workloads.ENGINE_TRACE,
                "src": str(root / "src"),
            }
        )
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    # Untimed: compiles bytecode and warms the file cache, and reports versions.
    versions = _child(env, work, work / "versions", "versions")
    environment = {
        "git_sha": _git_sha(root),
        **versions,
        "threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "yaml_sha256": digest.hexdigest(),
    }
    print("environment " + json.dumps(environment, sort_keys=True))

    modes = ["plain", "traced"] if args.trace else ["plain"]
    reps: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    started = time.monotonic()
    k = 0
    while k < MIN_REPS or time.monotonic() - started < args.seconds:
        for mode in modes:
            out = work / f"rep{k}-{mode}"
            reps[mode].append(_child(env, work, out, mode))
            a, f, p, outputs = _check(configs, out, reference)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            if reference is None:
                reference = outputs
                trace_bytes = sum(len(v) for n, v in outputs.items() if n.endswith(".trace"))
            shutil.rmtree(out)
        k += 1
    if args.trace:
        raws = [r["layers"] for r in reps["traced"]]
        if any(layers.count_fields(r) != layers.count_fields(raws[0]) for r in raws):
            problems.append("per-layer counts differ between traced repetitions")
        metrics = per_layer_metrics(configs, reps["plain"], reps["traced"], trace_bytes)
    else:
        metrics = end_to_end_metrics(reps["plain"])
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    repetitions = ", ".join(f"{len(v)} {mode}" for mode, v in reps.items())
    print(f"workload {args.workload} seed {args.seed}: {repetitions} repetitions")
    for mode, v in reps.items():
        raw = {key: statistics.median(r[key] for r in v) for key in ("wall_s", "setup_s")}
        probe = statistics.median(statistics.fmean(r["probe_s"]) for r in v)
        print(
            f"{mode} raw medians: wall_s {raw['wall_s']} s, setup_s {raw['setup_s']} s, "
            f"speed probe {probe} s"
        )
    print(f"cells attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qnetsim" / "__init__.py").is_file():
        print(f"{root} is not a qnetsim checkout: src/qnetsim is missing", file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        result = run(args, root, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
