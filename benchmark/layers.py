"""Per-layer tracing from outside the program, and the qstate kernel sweep.

``LayerRecorder.install`` replaces each public layer function listed in
``TRACED`` by a timing wrapper at every binding inside ``qnetsim``: the
defining module, every module that did ``from .x import f``, and the
class for methods.  The wrappers share one call stack, so a function's
self time excludes the time spent in wrapped callees.  They only observe:
arguments and results pass through untouched.

This module imports nothing from ``qnetsim`` at load time, so the untraced
child process never pays for it.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any, Callable

# (metric prefix, defining module, attribute; "Class.method" for methods)
TRACED: tuple[tuple[str, str, str], ...] = (
    ("qstate.apply_unitary", "qnetsim.qstate", "apply_unitary"),
    ("qstate.measure", "qnetsim.qstate", "measure"),
    ("qstate.partial_trace", "qnetsim.qstate", "partial_trace"),
    ("qstate.fidelity", "qnetsim.qstate", "fidelity"),
    ("channels.apply_channel", "qnetsim.channels", "apply_channel"),
    ("channels.holevo_information", "qnetsim.channels", "holevo_information"),
    ("channels.compose_serial", "qnetsim.channels", "compose_serial"),
    ("channels.reduce_kraus", "qnetsim.channels", "reduce_kraus"),
    ("channels.quantum_switch", "qnetsim.channels", "quantum_switch"),
    ("protocols.bell_basis_measure", "qnetsim.protocols", "bell_basis_measure"),
    ("protocols.pauli_correct", "qnetsim.protocols", "pauli_correct"),
    ("protocols.superdense_encode", "qnetsim.protocols", "superdense_encode"),
    ("protocols.superdense_decode", "qnetsim.protocols", "superdense_decode"),
    ("protocols.werner_pair", "qnetsim.protocols", "werner_pair"),
    ("protocols.make_w_state", "qnetsim.protocols", "make_w_state"),
    ("protocols.w_election_round", "qnetsim.protocols", "w_election_round"),
    ("engine.run_until", "qnetsim.engine", "EventEngine.run_until"),
    ("engine.schedule", "qnetsim.engine", "EventEngine.schedule"),
    ("engine.send_classical", "qnetsim.engine", "EventEngine.send_classical"),
    ("engine.attempt_entanglement", "qnetsim.engine", "EventEngine.attempt_entanglement"),
    ("engine.shortest_classical_route", "qnetsim.engine", "Topology.shortest_classical_route"),
    ("services.mac.run_mac_sim", "qnetsim.services.mac", "run_mac_sim"),
    ("services.phy.phy_effective_rate", "qnetsim.services.phy", "phy_effective_rate"),
    ("services.routing.route_max_bottleneck", "qnetsim.services.routing", "route_max_bottleneck"),
    (
        "services.routing.route_with_switch_merging",
        "qnetsim.services.routing",
        "route_with_switch_merging",
    ),
    ("runner.csv_text", "qnetsim.runner", "csv_text"),
    ("config.load_config", "qnetsim.config", "load_config"),
)

MAC_PROTOCOLS = ("w_state_access", "slotted_contention")
KERNEL_QUBITS = (2, 4, 6, 8)
KERNELS = ("cnot", "channel", "ptrace", "entropy")
# Each kernel is timed at least KERNEL_REPEATS times and for KERNEL_BUDGET_S.
KERNEL_REPEATS = 5
KERNEL_BUDGET_S = 0.02


class LayerRecorder:
    """Counts calls and sums self time of the ``TRACED`` functions."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name, _, _ in TRACED}
        self.self_s = {name: 0.0 for name, _, _ in TRACED}
        self.events = 0
        self.bits_h2h = 0
        self.bits_e2e = 0
        self.entanglement_successes = 0
        self.mac_slots = {p: 0 for p in MAC_PROTOCOLS}
        self.mac_s = {p: 0.0 for p in MAC_PROTOCOLS}
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- observers of return values ---------------------------------------

    def _on_run_until(self, args: tuple, result: Any, elapsed: float) -> None:
        self.events += result.events_processed
        self.bits_h2h += result.bits_host_to_host
        self.bits_e2e += result.bits_end_to_end

    def _on_attempt(self, args: tuple, result: Any, elapsed: float) -> None:
        self.entanglement_successes += result is not None

    def _on_mac(self, args: tuple, result: Any, elapsed: float) -> None:
        protocol = args[0].protocol.value
        self.mac_slots[protocol] += args[0].slots
        self.mac_s[protocol] += elapsed

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if observe is not None:
                observe(args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        observers = {
            "engine.run_until": self._on_run_until,
            "engine.attempt_entanglement": self._on_attempt,
            "services.mac.run_mac_sim": self._on_mac,
        }
        modules = [m for n, m in sys.modules.items() if n == "qnetsim" or n.startswith("qnetsim.")]
        for name, module_name, attr in TRACED:
            class_name, _, attr = attr.rpartition(".")
            owner: Any = sys.modules[module_name]
            if class_name:
                owner = getattr(owner, class_name)
                bindings = [(owner, attr)]
            original = owner.__dict__[attr]
            if not class_name:
                bindings = [
                    (m, key) for m in modules for key, value in vars(m).items() if value is original
                ]
            wrapper = self._wrap(name, original, observers.get(name))
            for target, key in bindings:
                self._undo.append((target, key, original))
                setattr(target, key, wrapper)

    def remove(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def raw(self) -> dict:
        """Plain-data snapshot for the parent process."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "events": self.events,
            "bits_h2h": self.bits_h2h,
            "bits_e2e": self.bits_e2e,
            "entanglement_successes": self.entanglement_successes,
            "mac_slots": self.mac_slots,
            "mac_s": self.mac_s,
        }


def count_fields(raw: dict) -> dict:
    """The parts of a ``raw`` snapshot that must repeat exactly run to run."""
    keys = ("calls", "events", "bits_h2h", "bits_e2e", "entanglement_successes", "mac_slots")
    return {k: raw[k] for k in keys}


def layer_metrics(raws: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions: counts from the first,
    times as medians over all of them."""
    first = raws[0]

    def median(get: Callable[[dict], float]) -> float:
        return statistics.median(get(r) for r in raws)

    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = (first["calls"][name], "count")
        out[f"{name}.self_s"] = (median(lambda r: r["self_s"][name]), "s")
    loop_s = median(lambda r: r["self_s"]["engine.run_until"])
    attempts = first["calls"]["engine.attempt_entanglement"]
    out["engine.events"] = (first["events"], "count")
    out["engine.events_per_s"] = (first["events"] / loop_s if loop_s else 0.0, "1/s")
    out["engine.attempt_entanglement.success_ratio"] = (
        first["entanglement_successes"] / attempts if attempts else 0.0,
        "ratio",
    )
    out["engine.ledger.bits_h2h"] = (first["bits_h2h"], "bit")
    out["engine.ledger.bits_e2e"] = (first["bits_e2e"], "bit")
    for protocol in MAC_PROTOCOLS:
        mac_s = median(lambda r: r["mac_s"][protocol])
        slots = first["mac_slots"][protocol]
        out[f"services.mac.{protocol}.slots_per_s"] = (slots / mac_s if mac_s else 0.0, "1/s")
    return out


def kernel_sweep() -> dict[str, float]:
    """Median time in microseconds of each qstate kernel per register size.

    Each kernel is called once untimed first, so gate and embedding caches
    are filled and the steady-state cost is what gets timed.
    """
    import numpy as np

    from qnetsim.channels import apply_channel, depolarizing_channel
    from qnetsim.qstate import (
        GateSpec,
        apply_unitary,
        partial_trace,
        random_pure_state,
        von_neumann_entropy,
    )

    rng = np.random.default_rng(0)
    cnot = GateSpec("CNOT", (0, 1))
    channel = depolarizing_channel(0.1)
    out = {}
    for n in KERNEL_QUBITS:
        state = random_pure_state(rng, n)
        keep = tuple(range(n // 2))
        ops = {
            "cnot": lambda: apply_unitary(state, cnot),
            "channel": lambda: apply_channel(channel, state, targets=(0,)),
            "ptrace": lambda: partial_trace(state, keep),
            "entropy": lambda: von_neumann_entropy(state),
        }
        for kernel, op in ops.items():
            op()
            samples = []
            stop = time.perf_counter() + KERNEL_BUDGET_S
            while len(samples) < KERNEL_REPEATS or time.perf_counter() < stop:
                start = time.perf_counter_ns()
                op()
                samples.append(time.perf_counter_ns() - start)
            out[f"qstate.kernel.{kernel}.n{n}_us"] = statistics.median(samples) / 1000.0
    return out
