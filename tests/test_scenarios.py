"""Scenario runners end to end, pinned to closed forms."""

import pytest

from qnetsim.config import parse_config
from qnetsim.runner import run_experiment


def metrics_by_cell(config):
    rows, aborted = run_experiment(parse_config(config))
    assert aborted == 0
    cells = {}
    for row in rows:
        cells.setdefault(row.params, {})[row.metric] = row.value
    return cells


def test_teleport_fidelity_is_werner_closed_form():
    # A Werner resource of weight w teleports every pure state with
    # fidelity (1 + w) / 2, so the mean and the minimum both equal it.
    cells = metrics_by_cell(
        {
            "scenario": "teleport",
            "seeds": [5],
            "params": {"n_teleports": 40},
            "sweep": {"werner_w": [1.0, 0.8, 0.3]},
            "topology": {
                "nodes": ["a", "b", "c"],
                "classical_links": [
                    {"a": "a", "b": "b", "latency": 2},
                    {"a": "b", "b": "c", "latency": 1},
                ],
            },
        }
    )
    assert len(cells) == 3
    for label, m in cells.items():
        w = float(label.split("werner_w=")[1])
        assert m["fidelity_mean"] == pytest.approx((1 + w) / 2, abs=1e-9)
        assert m["fidelity_min"] == pytest.approx((1 + w) / 2, abs=1e-9)
        assert m["bits_per_teleport"] == 2.0


@pytest.mark.parametrize("reverse_links", [False, True])
def test_swap_fidelity_is_depolarizing_closed_form(reverse_links):
    # Depolarizing p on both halves of both pairs leaves a Werner pair of
    # weight (1 - p)^4 after the swap: fidelity (1 + 3 (1 - p)^4) / 4.
    # Written either way round, a link is the same physical pair.
    p = 0.05
    ends = [("l", "m"), ("m", "r")]
    if reverse_links:
        ends = [(b, a) for a, b in ends]
    cells = metrics_by_cell(
        {
            "scenario": "swap",
            "seeds": [9],
            "params": {"n_swaps": 6},
            "topology": {
                "nodes": ["l", "m", "r"],
                "classical_links": [
                    {"a": "l", "b": "m", "latency": 1},
                    {"a": "m", "b": "r", "latency": 1},
                ],
                "quantum_links": [
                    {"a": a, "b": b, "channel": {"type": "depolarizing", "p": p}}
                    for a, b in ends
                ],
            },
        }
    )
    (m,) = cells.values()
    assert m["fidelity_mean"] == pytest.approx((1 + 3 * (1 - p) ** 4) / 4, abs=1e-9)
    assert m["swaps"] == 6
    assert m["bits_per_swap"] == 2.0


def test_cell_rows_do_not_depend_on_sweep_position():
    # A cell's stream derives from its seed and params label, so adding,
    # removing or reordering other sweep entries leaves its rows unchanged.
    def rows_for(werner_ws):
        rows, aborted = run_experiment(
            parse_config(
                {
                    "scenario": "superdense",
                    "seeds": [7],
                    "params": {"n_trials": 400},
                    "sweep": {"werner_w": werner_ws},
                }
            )
        )
        assert aborted == 0
        return [row for row in rows if row.params.endswith("werner_w=0.9")]

    alone = rows_for([0.9])
    assert alone
    assert rows_for([1.0, 0.9]) == alone
    assert rows_for([0.9, 1.0]) == alone
