"""Seeded workload generator.

Each workload is a list of ordinary experiment configs.  ``generate``
returns them as ``(name, spec, yaml_text)`` triples: the spec is the plain
dict the YAML was dumped from, which the checker reads for the inputs it
needs (link noise, topology).  Inputs come from ``random.Random(seed)``
only, so the same seed gives byte-identical YAML on any numpy version.
"""

from __future__ import annotations

import random

import yaml

# Workload name -> one-line reason it is in the benchmark.
WORKLOADS = {
    "engine_chain": "lossy swap and multi-hop teleport: the event loop, heap and per-event trace "
    "string dominate, plus 2-4 qubit gates and measurement",
    "engine_chain_traced": "same inputs as engine_chain with trace files written, so moving "
    "trace formatting out of the loop cannot just shift the cost onto the traced path",
    "protocol_trials": "superdense Monte-Carlo on 2-qubit states and W-state vs contention MAC "
    "up to 10 nodes; the event engine is never touched",
    "routing_grid": "multipath merge planning on a 4x4 grid and a 10x10 switch-activation "
    "sweep: path enumeration and Holevo rates, no engine or protocols",
}

# Seeds are free to use while developing a change.  This one is kept out of
# that loop: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

# Workloads whose trace files are written by run_experiment.
ENGINE_TRACE = {"engine_chain_traced"}

# Sizes: each workload's run_experiment time is 1 to 1.5 s on one core,
# so a 30 s run holds 15 to 20 repetitions.
N_TELEPORTS = 150
N_SWAPS = 800
SWAP_DEPOLARIZING_P = 0.05
SWAP_GEN_PROB = 0.02
SUPERDENSE_TRIALS = 2000
MAC_SLOTS = 4000
MAC_LOAD = 0.8
MAC_REFRESH_COST = 1
GRID_SIDE = 4
GRID_LINK_P = (0.02, 0.05, 0.1, 0.2)
# (row, col) cells of the cleanest path from the source (0, 0) to (3, 3).
GRID_LANE = ((0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (2, 1), (3, 1), (3, 2), (3, 3))
GRID_LANE_LINKS = [set(pair) for pair in zip(GRID_LANE, GRID_LANE[1:])]
SWITCH_GRID_POINTS = 10


def _config_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


def _engine_chain(rng: random.Random) -> list[tuple[str, dict]]:
    nodes = [f"n{i}" for i in range(6)]
    teleport = {
        "scenario": "teleport",
        "seeds": _config_seeds(rng, 2),
        "params": {"n_teleports": N_TELEPORTS},
        "sweep": {"werner_w": [1.0, 0.8]},
        "topology": {
            "nodes": nodes,
            "classical_links": [
                {"a": a, "b": b, "latency": rng.randint(1, 4)} for a, b in zip(nodes, nodes[1:])
            ],
        },
    }
    chain = ["left", "mid", "right"]
    swap = {
        "scenario": "swap",
        "seeds": _config_seeds(rng, 1),
        "params": {"n_swaps": N_SWAPS},
        "topology": {
            "nodes": chain,
            "classical_links": [
                {"a": a, "b": b, "latency": rng.randint(1, 3)} for a, b in zip(chain, chain[1:])
            ],
            "quantum_links": [
                {
                    "a": a,
                    "b": b,
                    "channel": {"type": "depolarizing", "p": SWAP_DEPOLARIZING_P},
                    "gen_success_prob": SWAP_GEN_PROB,
                    "attempt_period": 1,
                }
                for a, b in zip(chain, chain[1:])
            ],
        },
    }
    return [("teleport", teleport), ("swap", swap)]


def _protocol_trials(rng: random.Random) -> list[tuple[str, dict]]:
    superdense = {
        "scenario": "superdense",
        "seeds": _config_seeds(rng, 1),
        "params": {"n_trials": SUPERDENSE_TRIALS},
        "sweep": {"werner_w": [1.0, 0.9, 0.7]},
    }
    hidden = sorted(rng.sample(range(4), 2))
    mac = {
        "scenario": "mac_compare",
        "seeds": _config_seeds(rng, 1),
        "params": {
            "slots": MAC_SLOTS,
            "offered_load": MAC_LOAD,
            "w_refresh_cost": MAC_REFRESH_COST,
            "backoff_window": 2,
            "hidden_pairs": [hidden],
        },
        "sweep": {
            "protocol": ["w_state_access", "slotted_contention"],
            "n_nodes": [4, 10],
        },
    }
    return [("superdense", superdense), ("mac_compare", mac)]


def _grid_link_p(a: tuple[int, int], b: tuple[int, int], index: int) -> float:
    """Fixed noise of the grid link a-b, with the source at (0, 0).

    The corner (0, 3) is walled off by fully depolarizing links, so every
    single path to it is dead and only a switch-merged pair reaches it.
    The cleanest links form GRID_LANE, which steps back left once, so the
    widest path to (3, 3) is two hops longer than a shortest one.  Every
    other link takes the next p of GRID_LINK_P[1:] in turn, so each shortest
    path is strictly narrower than the lane.
    """
    if (0, GRID_SIDE - 1) in (a, b):
        return 1.0
    if {a, b} in GRID_LANE_LINKS:
        return GRID_LINK_P[0]
    return GRID_LINK_P[1 + index % (len(GRID_LINK_P) - 1)]


def _grid_topology(rng: random.Random) -> tuple[dict, str, list[str]]:
    side = GRID_SIDE
    # The seed picks only a symmetry of the grid: the mirror about the
    # diagonal through the source, which also moves the walled corner.  The
    # planner's work then does not depend on the seed.
    mirror = rng.random() < 0.5

    def name(r: int, c: int) -> str:
        return f"g{c}{r}" if mirror else f"g{r}{c}"

    links = []
    for r in range(side):
        for c in range(side):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 >= side or c2 >= side:
                    continue
                links.append(
                    {
                        "a": name(r, c),
                        "b": name(r2, c2),
                        "channel": {
                            "type": "depolarizing",
                            "p": _grid_link_p((r, c), (r2, c2), len(links)),
                        },
                        "gen_success_prob": 1.0,
                        "attempt_period": 1,
                    }
                )
    nodes = sorted(name(r, c) for r in range(side) for c in range(side))
    walled, far = name(0, side - 1), name(side - 1, side - 1)
    return {"nodes": nodes, "quantum_links": links}, name(0, 0), sorted((walled, far))


def _switch_axis(rng: random.Random) -> list[float]:
    values = rng.sample(range(100), SWITCH_GRID_POINTS - 1)
    return sorted(v / 100 for v in values) + [1.0]


def _routing_grid(rng: random.Random) -> list[tuple[str, dict]]:
    topology, src, destinations = _grid_topology(rng)
    routing = {
        "scenario": "multipath_routing",
        "seeds": _config_seeds(rng, 1),
        "params": {"src": src},
        "sweep": {"dst": destinations},
        "topology": topology,
    }
    switch = {
        "scenario": "switch_activation",
        "seeds": _config_seeds(rng, 1),
        "sweep": {"p1": _switch_axis(rng), "p2": _switch_axis(rng)},
    }
    return [("multipath_routing", routing), ("switch_activation", switch)]


_GENERATORS = {
    "engine_chain": _engine_chain,
    "engine_chain_traced": _engine_chain,
    "protocol_trials": _protocol_trials,
    "routing_grid": _routing_grid,
}


def generate(workload: str, seed: int) -> list[tuple[str, dict, str]]:
    """Configs of ``workload`` for ``seed`` as ``(name, spec, yaml_text)``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(_GENERATORS)}")
    rng = random.Random(seed)
    return [
        (name, spec, yaml.safe_dump(spec, sort_keys=False, default_flow_style=None))
        for name, spec in _GENERATORS[workload](rng)
    ]


def cell_count(spec: dict) -> int:
    """Cells ``run_experiment`` executes for ``spec``: seeds times grid points."""
    count = len(spec["seeds"])
    for values in spec.get("sweep", {}).values():
        count *= len(values)
    return count
