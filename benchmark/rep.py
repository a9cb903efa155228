"""One repetition of a workload in a fresh process, as a CLI user runs it.

    python3 rep.py WORK_DIR OUT_DIR MODE

MODE is ``plain`` (timed, no tracing), ``traced`` (layer wrappers
installed, then the qstate kernel sweep) or ``versions`` (import only;
prints the interpreter and library versions).  WORK_DIR holds the
generated YAML configs and ``manifest.json``.  Prints one JSON object on
stdout.

Only the standard library is imported before the clock starts, so
``setup_s`` covers importing qnetsim (and numpy) and loading every config.
A fixed speed probe is timed after set-up and after each config; the
parent uses it to take out the host's speed drift.
"""

import heapq
import json
import os
import resource
import sys
import time
from pathlib import Path

PROBE_ITERATIONS = 1000


def speed_probe_s(np) -> float:
    """Seconds for a fixed mix of the work qnetsim spends its time on:
    small numpy products, heap operations and string formatting."""
    a = np.full((4, 4), 0.25, dtype=complex)
    b = np.eye(2, dtype=complex)
    heap: list = []
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        m = np.kron(a[:2, :2], b) @ a
        heapq.heappush(heap, (i & 63, i, f"t={i} v={m[0, 0].real!r}"))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def main() -> int:
    work, out, mode = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
    manifest = json.loads((work / "manifest.json").read_text())

    start = time.perf_counter()
    import qnetsim
    import qnetsim.config
    import qnetsim.runner

    source = Path(qnetsim.__file__).resolve()
    if not source.is_relative_to(Path(manifest["src"]).resolve()):
        print(f"qnetsim imported from {source}, not from {manifest['src']}", file=sys.stderr)
        return 3
    if mode == "versions":
        import numpy as np

        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas_version = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):  # numpy < 1.25 has no dict form
            blas_version = "unknown"
        print(json.dumps({
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_version,
        }))
        return 0

    recorder = None
    if mode == "traced":
        from layers import LayerRecorder, kernel_sweep

        recorder = LayerRecorder()
        recorder.install()
    configs = [qnetsim.config.load_config(work / f"{name}.yaml") for name in manifest["configs"]]
    setup_s = time.perf_counter() - start

    import numpy as np

    probes = [speed_probe_s(np)]
    wall_s = 0.0
    for name, config in zip(manifest["configs"], configs):
        start = time.perf_counter()
        qnetsim.runner.run_experiment(config, out_dir=out / name, trace=manifest["engine_trace"])
        wall_s += time.perf_counter() - start
        probes.append(speed_probe_s(np))

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": probes,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.remove()
        result["layers"] = recorder.raw()
        result["kernels"] = kernel_sweep()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
