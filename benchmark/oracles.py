"""Output checker: every metrics.csv cell against an independent closed form.

Nothing here imports ``qnetsim``.  Expected values come from textbook
formulas (Werner-state fidelities, the depolarizing Holevo rate
``1 - h2(p/2)``), a binomial 5-sigma band for Monte-Carlo rates, and this
module's own widest-path enumeration for routing.  Statistical checks use
only the closed-form mean and the trial count, never the RNG stream, so a
change to the stream still passes when the physics is right.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Callable

from workloads import cell_count

TOL = 1e-9
SIGMAS = 5.0
# Holevo rate of two fully depolarizing channels in a superposition of
# orders, control prepared in |+> and measured in the |+>/|-> basis.
SWITCH_ACTIVATION_RATE = 0.048794940695398914


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def depolarizing_rate(p: float) -> float:
    """Holevo rate of a qubit depolarizing channel for the computational ensemble."""
    return 1.0 - h2(p / 2.0)


def _close(value: float, expected: float, tol: float = TOL) -> bool:
    return abs(value - expected) <= tol


def _within_binomial(rate: float, p: float, trials: int) -> bool:
    sigma = math.sqrt(p * (1.0 - p) / trials)
    return abs(rate - p) <= SIGMAS * sigma + 1e-12


def _parse_label(label: str) -> dict[str, str]:
    return dict(item.partition("=")[::2] for item in label.split("|")) if label else {}


# -- per-scenario oracles: (spec, cell params, metrics) -> list of problems ----


def _teleport(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    # A Werner resource teleports every pure state with fidelity (1+w)/2.
    w = float(cell["werner_w"])
    expected = (1.0 + w) / 2.0
    problems = [
        f"{name} {m[name]} != (1+w)/2 = {expected!r}"
        for name in ("fidelity_min", "fidelity_mean")
        if not _close(float(m[name]), expected)
    ]
    if float(m["bits_per_teleport"]) != 2.0:
        problems.append(f"bits_per_teleport {m['bits_per_teleport']} != 2")
    if int(m["teleports"]) != int(cell["n_teleports"]):
        problems.append(f"teleports {m['teleports']} != {cell['n_teleports']}")
    return problems


def _swap(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    (p,) = {link["channel"]["p"] for link in spec["topology"]["quantum_links"]}
    expected = (1.0 + 3.0 * (1.0 - p) ** 4) / 4.0
    problems = []
    if not _close(float(m["fidelity_mean"]), expected):
        problems.append(f"fidelity_mean {m['fidelity_mean']} != (1+3(1-p)^4)/4 = {expected!r}")
    if float(m["bits_per_swap"]) != 2.0:
        problems.append(f"bits_per_swap {m['bits_per_swap']} != 2")
    return problems


def _superdense(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    w = float(cell["werner_w"])
    p = (1.0 + 3.0 * w) / 4.0
    rate = float(m["success_rate_overall"])
    if not _within_binomial(rate, p, int(m["trials"])):
        return [f"success_rate_overall {rate!r} outside 5 sigma of (1+3w)/4 = {p!r}"]
    return []


def _mac_compare(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    throughput = float(m["throughput"])
    collision_rate = float(m["collision_rate"])
    load = float(cell["offered_load"])
    slots = int(cell["slots"])
    if cell["protocol"] == "slotted_contention":
        # With carrier sensing only a hidden pair can collide, and it does so
        # in a slot with probability at most load^2, whatever the backoff.
        # There is no closed form for the rest.
        bound = load * load
        sigma = math.sqrt(bound * (1.0 - bound) / slots)
        if collision_rate > bound + SIGMAS * sigma:
            return [f"collision_rate {collision_rate!r} above 5 sigma of load^2 = {bound!r}"]
        return []
    # One election every (1 + refresh) slots; the winner sends with prob. load.
    elections = slots // (1 + int(cell["w_refresh_cost"]))
    expected = load * elections / slots
    sigma = math.sqrt(elections * load * (1.0 - load)) / slots
    problems = []
    if collision_rate != 0.0:
        problems.append(f"collision_rate {collision_rate} != 0")
    if m["privacy_ok"] != "1":
        problems.append("privacy_ok is false")
    if abs(throughput - expected) > SIGMAS * sigma + 1e-12:
        problems.append(f"throughput {throughput!r} outside 5 sigma of load/(1+refresh) = {expected!r}")
    return problems


def _switch_activation(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    p1, p2 = float(cell["p1"]), float(cell["p2"])
    p12 = 1.0 - (1.0 - p1) * (1.0 - p2)
    expected = {
        "chi_first": depolarizing_rate(p1),
        "chi_second": depolarizing_rate(p2),
        "chi_serial": depolarizing_rate(p12),
    }
    if p1 == 1.0 and p2 == 1.0:
        expected["chi_switch"] = SWITCH_ACTIVATION_RATE
    problems = [
        f"{name} {m[name]} != {value!r}"
        for name, value in expected.items()
        if not _close(float(m[name]), value)
    ]
    if m["bottleneck_holds"] != "1":
        problems.append("bottleneck_holds is false")
    return problems


def widest_path_rate(topology: dict, src: str, dst: str) -> float:
    """Largest bottleneck link rate over all simple paths, by enumeration.

    Links at rate <= 1e-9 carry nothing and are skipped, so a destination
    reachable only through them gets rate 0.
    """
    rates: dict[str, dict[str, float]] = {n: {} for n in topology["nodes"]}
    for link in topology["quantum_links"]:
        rate = depolarizing_rate(float(link["channel"]["p"]))
        if rate > TOL:
            rates[link["a"]][link["b"]] = rate
            rates[link["b"]][link["a"]] = rate
    best = 0.0
    stack = [(src, math.inf, frozenset((src,)))]
    while stack:
        node, bottleneck, seen = stack.pop()
        if node == dst:
            best = max(best, bottleneck)
            continue
        for other, rate in rates[node].items():
            if other not in seen and min(bottleneck, rate) > best:
                stack.append((other, min(bottleneck, rate), seen | {other}))
    return best


def _multipath_routing(spec: dict, cell: dict[str, str], m: dict[str, str]) -> list[str]:
    expected = widest_path_rate(spec["topology"], cell["src"], cell["dst"])
    single = float(m["single_path_rate"])
    problems = []
    if not _close(single, expected):
        problems.append(f"single_path_rate {single!r} != widest path {expected!r}")
    if (m["single_unreachable"] == "1") != (expected == 0.0):
        problems.append(f"single_unreachable {m['single_unreachable']} disagrees with rate {expected!r}")
    if m["dominance_holds"] != "1":
        problems.append("dominance_holds is false")
    merged = float(m["merged_rate"])
    if merged < expected - TOL:
        problems.append(f"merged_rate {merged!r} below widest path {expected!r}")
    if expected == 0.0 and merged <= 0.0:
        problems.append(f"blocked destination has merged_rate {m['merged_rate']}")
    return problems


ORACLES: dict[str, Callable[[dict, dict[str, str], dict[str, str]], list[str]]] = {
    "teleport": _teleport,
    "swap": _swap,
    "superdense": _superdense,
    "mac_compare": _mac_compare,
    "switch_activation": _switch_activation,
    "multipath_routing": _multipath_routing,
}


def check_csv(spec: dict, csv_text: str) -> tuple[int, list[str]]:
    """Check one config's metrics.csv.

    Returns ``(cells_attempted, problems)``; each problem names one failed
    cell, so ``len(problems)`` is the number of failed cells.  Cells that
    aborted, lack a metric or are missing from the file count as failed.
    """
    cells: dict[tuple[str, str], dict[str, str]] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        cells.setdefault((row["seed"], row["params"]), {})[row["metric"]] = row["value"]
    expected_cells = cell_count(spec)
    oracle = ORACLES[spec["scenario"]]
    problems = []
    for (seed, label), metrics in cells.items():
        where = f"{spec['scenario']} seed={seed} {label}"
        if metrics.get("status") == "aborted":
            problems.append(f"{where}: aborted")
            continue
        try:
            issues = oracle(spec, _parse_label(label), metrics)
        except (KeyError, ValueError) as exc:
            issues = [f"unreadable output ({exc!r})"]
        if issues:
            problems.append(f"{where}: " + "; ".join(issues))
    if len(cells) < expected_cells:
        problems.extend(
            [f"{spec['scenario']}: cell missing from csv"] * (expected_cells - len(cells))
        )
    return expected_cells, problems
