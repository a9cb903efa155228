"""Widest-path planning and switch-merged superposed trajectories."""

import numpy as np
import pytest
import yaml

from qnetsim import scenarios
from qnetsim.channels import ChannelModel, compose_serial, depolarizing_channel, reduce_kraus
from qnetsim.config import load_config, parse_config
from qnetsim.engine import QuantumLink, Topology
from qnetsim.runner import run_experiment
from qnetsim.services import routing
from qnetsim.services.phy import phy_effective_rate
from qnetsim.services.routing import (
    PlanMode,
    TrajectoryPlan,
    _disjoint_pairs,
    route_max_bottleneck,
    route_with_switch_merging,
    simple_paths,
)
from reference import (
    CONFIG_DIR,
    SWITCH_ACTIVATION_GOLDEN,
    dep_holevo,
    enumerate_paths,
    ginibre_kraus,
    load_benchmark_module,
    oracle_best,
    random_link_params,
    rate_of,
)


def topology_from_links(link_params):
    """Build a quantum topology from {(a, b): depolarizing p} pairs."""
    nodes = sorted({n for pair in link_params for n in pair})
    links = tuple(
        QuantumLink(a, b, depolarizing_channel(p), 1.0, 1)
        for (a, b), p in sorted(link_params.items())
    )
    return Topology(tuple(nodes), (), links)


# -- single-path planning -----------------------------------------------------


def test_two_link_chain_takes_the_minimum():
    links = {("a", "b"): 0.0, ("b", "c"): 0.5}
    plan = route_max_bottleneck(topology_from_links(links), "a", "c")
    assert plan.mode is PlanMode.SINGLE_PATH
    assert plan.paths == (("a", "b", "c"),)
    # bottleneck is the noisy link, whose rate is known in closed form
    assert plan.effective_rate == pytest.approx(dep_holevo(0.5), abs=1e-9)
    assert plan.effective_rate == pytest.approx(min(dep_holevo(0.0), dep_holevo(0.5)), abs=1e-9)


def test_all_depolarizing_links_are_unreachable():
    links = {("a", "b"): 1.0, ("b", "c"): 1.0}
    plan = route_max_bottleneck(topology_from_links(links), "a", "c")
    assert plan.unreachable
    assert plan.effective_rate == 0.0
    assert plan.paths == ((),)


def test_disconnected_destination_is_unreachable():
    topo = Topology(("a", "b", "c"), (), (QuantumLink("a", "b", depolarizing_channel(0.1), 1.0, 1),))
    plan = route_max_bottleneck(topo, "a", "c")
    assert plan.unreachable


def test_five_node_mesh_matches_enumeration_oracle():
    links = {
        ("a", "b"): 0.1,
        ("a", "c"): 0.4,
        ("b", "c"): 0.2,
        ("b", "d"): 0.7,
        ("c", "d"): 0.3,
        ("c", "e"): 0.6,
        ("d", "e"): 0.05,
    }
    plan = route_max_bottleneck(topology_from_links(links), "a", "e")
    oracle_rate, oracle_path = oracle_best(links, "a", "e")
    assert plan.effective_rate == pytest.approx(oracle_rate, abs=1e-9)
    assert plan.paths[0] == oracle_path


def test_tie_break_is_lexicographic():
    # two symmetric two-hop paths with identical channels
    links = {("a", "b"): 0.2, ("b", "d"): 0.2, ("a", "c"): 0.2, ("c", "d"): 0.2}
    plan = route_max_bottleneck(topology_from_links(links), "a", "d")
    assert plan.paths[0] == ("a", "b", "d")


def routing_grid(seed):
    """The 4x4 grid of the benchmark's ``routing_grid`` workload at ``seed``:
    its topology, source, two destinations and ``{(a, b): p}`` link noise.
    The seed picks one of the grid's two mirrors: 7919 one and 1 the other."""
    configs = load_benchmark_module("workloads").generate("routing_grid", seed)
    [spec] = [spec for name, spec, _ in configs if name == "multipath_routing"]
    config = parse_config(spec)
    links = spec["topology"]["quantum_links"]
    link_params = {(link["a"], link["b"]): link["channel"]["p"] for link in links}
    return config.topology, config.params["src"], config.sweep["dst"], link_params


def tie_heavy_link_params(rng):
    """Random graph of 3 to 8 nodes, a spanning tree plus up to 2n - 1
    chord draws, whose link noise takes two or three values, so that many
    paths share the best bottleneck.  Node names are shuffled, so that the
    tie-break order is not the order the graph was built in."""
    n = int(rng.integers(3, 9))
    nodes = [str(name) for name in rng.permutation(list("abcdefgh"))[:n]]
    noise = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0], size=int(rng.integers(2, 4)), replace=False)
    pairs = {tuple(sorted((nodes[int(rng.integers(0, i))], nodes[i]))) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.choice(n, size=2, replace=False)
        pairs.add(tuple(sorted((nodes[int(i)], nodes[int(j)]))))
    return {pair: float(rng.choice(noise)) for pair in sorted(pairs)}


def test_widest_path_matches_oracle_on_tie_heavy_graphs():
    rng = np.random.default_rng(83)
    tied_plans = unreachable = 0
    for trial in range(240):
        links = tie_heavy_link_params(rng)
        topo = topology_from_links(links)
        src, dst = (str(node) for node in rng.choice(topo.nodes, size=2, replace=False))
        plan = route_max_bottleneck(topo, src, dst)
        oracle_rate, oracle_path = oracle_best(links, src, dst)
        if not oracle_path:
            assert plan.unreachable and plan.paths == ((),), (trial, links)
            unreachable += 1
            continue
        assert plan.paths == (oracle_path,), (trial, links, src, dst)
        assert abs(plan.effective_rate - oracle_rate) <= 1e-12, (trial, links)
        usable = [p for p in enumerate_paths(links, src, dst) if rate_of(links, p) > 1e-9]
        tied_plans += sum(abs(rate_of(links, p) - oracle_rate) <= 1e-12 for p in usable) > 1
    # a third of the plans are decided by the tie-break, and some endpoints
    # are cut off
    assert tied_plans > 60
    assert unreachable > 0


@pytest.mark.parametrize("seed", [7919, 1])
def test_widest_path_matches_oracle_on_routing_grid(seed):
    topo, src, destinations, links = routing_grid(seed)
    for dst in destinations:
        plan = route_max_bottleneck(topo, src, dst)
        oracle_rate, oracle_path = oracle_best(links, src, dst)
        assert plan.paths == (oracle_path,), dst
        assert abs(plan.effective_rate - oracle_rate) <= 1e-12, dst


def test_endpoint_validation():
    topo = topology_from_links({("a", "b"): 0.1})
    for search in (route_max_bottleneck, simple_paths):
        with pytest.raises(ValueError, match="source and destination must differ"):
            search(topo, "a", "a")
        with pytest.raises(ValueError, match="unknown endpoint"):
            search(topo, "a", "ghost")


# -- switch merging -----------------------------------------------------------


def blocked_square():
    # every single path crosses a fully depolarizing link, but the two
    # paths are link-disjoint
    return {
        ("a", "b"): 1.0,
        ("b", "d"): 1.0,
        ("a", "c"): 1.0,
        ("c", "d"): 1.0,
    }


def merge_plan(topo, src, dst):
    """The merged plan over the simple paths from ``src`` to ``dst``,
    starting from their widest path."""
    single = route_max_bottleneck(topo, src, dst)
    return route_with_switch_merging(topo, simple_paths(topo, src, dst), single)


def test_merging_activates_blocked_topology():
    topo = topology_from_links(blocked_square())
    single = route_max_bottleneck(topo, "a", "d")
    merged = route_with_switch_merging(topo, simple_paths(topo, "a", "d"), single)
    assert single.unreachable and single.effective_rate == 0.0
    assert merged.mode is PlanMode.SUPERPOSED_PAIR
    assert merged.effective_rate > 0.02
    assert merged.effective_rate == pytest.approx(SWITCH_ACTIVATION_GOLDEN, abs=1e-9)
    assert set(merged.paths) == {("a", "b", "d"), ("a", "c", "d")}


def test_nearly_equal_path_channels_are_rated_apart():
    # The s-a-t channel's PTM differs from the fully depolarizing s-b-t and
    # s-c-t ones in the fourth decimal, and its pairs rate 3e-5 lower than
    # (s-b-t, s-c-t), the last pair.  A path key that rounded the two
    # channels together would rate that pair as the first one.
    links = {("a", "s"): 0.9996, ("a", "t"): 0.0}
    links.update({(n, end): 1.0 for n in ("b", "c") for end in ("s", "t")})
    topo = topology_from_links(links)
    merged = merge_plan(topo, "s", "t")
    assert merged.paths == (("s", "b", "t"), ("s", "c", "t"))
    assert merged.effective_rate == pytest.approx(SWITCH_ACTIVATION_GOLDEN, abs=1e-12)


def test_merged_plan_keeps_one_packet_instance():
    topo = topology_from_links(blocked_square())
    merged = merge_plan(topo, "a", "d")
    assert len(merged.paths) == 2
    links_first = set(zip(merged.paths[0], merged.paths[0][1:]))
    links_second = set(zip(merged.paths[1], merged.paths[1][1:]))
    assert not (
        {frozenset(l) for l in links_first} & {frozenset(l) for l in links_second}
    )


def test_clean_identity_path_dominates_merging():
    links = {("a", "b"): 0.0, ("b", "d"): 0.0, ("a", "c"): 0.8, ("c", "d"): 0.8}
    topo = topology_from_links(links)
    merged = merge_plan(topo, "a", "d")
    assert merged.mode is PlanMode.SINGLE_PATH
    assert merged.effective_rate == pytest.approx(1.0, abs=1e-9)
    assert merged.paths == (("a", "b", "d"),)


def test_merging_never_below_single_path():
    rng = np.random.default_rng(71)
    for trial in range(30):
        links = random_link_params(rng)
        topo = topology_from_links(links)
        nodes = topo.nodes
        src, dst = nodes[0], nodes[-1]
        single = route_max_bottleneck(topo, src, dst)
        merged = route_with_switch_merging(topo, simple_paths(topo, src, dst), single)
        assert merged.effective_rate >= single.effective_rate - 1e-9, (trial, links)
        oracle_rate, oracle_path = oracle_best(links, src, dst)
        assert single.effective_rate == pytest.approx(oracle_rate, abs=1e-9), (trial, links)
        if oracle_path:
            assert single.paths[0] == oracle_path, (trial, links)


def test_plans_are_deterministic():
    topo = topology_from_links(blocked_square())
    first = merge_plan(topo, "a", "d")
    second = merge_plan(topo, "a", "d")
    assert first.paths == second.paths
    assert first.effective_rate == second.effective_rate
    assert first.mode is second.mode


# -- merged plan against a fold-every-path reference ---------------------------


def random_channel_topology(rng):
    """Random graph of 3 to 8 nodes: a spanning tree plus up to 2n - 1
    chord draws, so that many simple paths share prefixes.  One in three
    links is fully depolarizing and one in three a random Kraus channel.
    Returns the channels by link, the random Kraus links and the topology."""
    n = int(rng.integers(3, 9))
    nodes = [f"n{i}" for i in range(n)]
    pairs = {tuple(sorted((nodes[int(rng.integers(0, i))], nodes[i]))) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.choice(n, size=2, replace=False)
        pairs.add(tuple(sorted((nodes[int(i)], nodes[int(j)]))))
    channels = {}
    kraus_links = set()
    for pair in sorted(pairs):
        kind = rng.random()
        if kind < 1 / 3:
            channels[pair] = depolarizing_channel(1.0)
        elif kind < 2 / 3:
            channels[pair] = ChannelModel(ginibre_kraus(rng, rng.integers(2, 5)))
            kraus_links.add(frozenset(pair))
        else:
            channels[pair] = depolarizing_channel(float(np.round(rng.uniform(0.0, 0.9), 3)))
    links = tuple(QuantumLink(a, b, c, 1.0, 1) for (a, b), c in channels.items())
    return channels, kraus_links, Topology(tuple(nodes), (), links)


def reference_merged_plan(channels, topology, src, dst):
    """The merge planner before prefix sharing: fold every simple path
    link by link, then rate every link-disjoint pair.  Also returns the
    paths whose fold ran ``reduce_kraus`` at their third hop or later."""
    best = route_max_bottleneck(topology, src, dst)
    paths = enumerate_paths(channels, src, dst)
    folded = []
    reduced_late = []
    for path in paths:
        channel = None
        for hop, (a, b) in enumerate(zip(path, path[1:]), start=1):
            link = topology.quantum_link(a, b).channel
            channel = link if channel is None else compose_serial(channel, link)
            if len(channel.kraus_ops) > 4:
                channel = reduce_kraus(channel)
                if hop >= 3 and path not in reduced_late:
                    reduced_late.append(path)
        folded.append(channel)
    prints = [
        np.round(np.concatenate([k.reshape(-1) for k in c.kraus_ops]), 12).tobytes()
        for c in folded
    ]
    links = [{frozenset(pair) for pair in zip(p, p[1:])} for p in paths]
    rates = {}
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if links[i] & links[j]:
                continue
            key = tuple(sorted((prints[i], prints[j])))
            if key not in rates:
                rates[key] = phy_effective_rate(folded[i], folded[j])
            if rates[key] > best.effective_rate + 1e-9:
                best = TrajectoryPlan(PlanMode.SUPERPOSED_PAIR, (paths[i], paths[j]), rates[key])
    return best, reduced_late


def assert_plan_equals_reference(channels, topo, src, dst):
    """The merged plan equals the fold-every-path reference; returns the
    plan and the paths the reference reduced past their second hop."""
    plan = merge_plan(topo, src, dst)
    reference, reduced_late = reference_merged_plan(channels, topo, src, dst)
    assert plan.mode is reference.mode, (src, dst, channels)
    assert plan.paths == reference.paths, (src, dst, channels)
    # The planner folds PTMs and the reference Kraus sets: equal to rounding.
    assert abs(plan.effective_rate - reference.effective_rate) <= 1e-12, (src, dst, channels)
    assert plan.unreachable == reference.unreachable, (src, dst, channels)
    return plan, reduced_late


def test_merged_plan_equals_fold_every_path_reference():
    rng = np.random.default_rng(29)
    merged_pairs = late_kraus_reductions = 0
    for trial in range(40):
        channels, kraus_links, topo = random_channel_topology(rng)
        src, dst = topo.nodes[0], topo.nodes[-1]
        plan, reduced_late = assert_plan_equals_reference(channels, topo, src, dst)
        merged_pairs += plan.mode is PlanMode.SUPERPOSED_PAIR
        late_kraus_reductions += any(
            kraus_links & {frozenset(l) for l in zip(path, path[1:])} for path in reduced_late
        )
    # the trials reach both plan modes, and reduce_kraus runs past the
    # second hop of paths through random Kraus links
    assert 0 < merged_pairs < 40
    assert late_kraus_reductions > 0


@pytest.mark.parametrize("seed", [7919, 1])
def test_merged_plan_equals_fold_every_path_reference_on_routing_grid(seed):
    topo, src, destinations, _ = routing_grid(seed)
    channels = {(link.a, link.b): link.channel for link in topo.quantum_links}
    modes = [assert_plan_equals_reference(channels, topo, src, dst)[0].mode for dst in destinations]
    # the walled corner needs a merged pair; the far corner has a clean lane
    assert set(modes) == {PlanMode.SINGLE_PATH, PlanMode.SUPERPOSED_PAIR}


def brute_force_disjoint_pairs(paths):
    """Every pair i < j of paths that share no link, by testing all pairs."""
    links = [{frozenset(hop) for hop in zip(p, p[1:])} for p in paths]
    return [
        (i, j)
        for i in range(len(paths))
        for j in range(i + 1, len(paths))
        if not links[i] & links[j]
    ]


def test_disjoint_pairs_equal_brute_force_on_random_graphs():
    rng = np.random.default_rng(37)
    pairs_seen = 0
    for _ in range(40):
        _, _, topo = random_channel_topology(rng)
        paths = simple_paths(topo, topo.nodes[0], topo.nodes[-1])
        pairs = list(_disjoint_pairs(topo, paths))
        assert pairs == brute_force_disjoint_pairs(paths)
        pairs_seen += len(pairs)
    assert pairs_seen > 100


@pytest.mark.parametrize("seed", [7919, 1])
def test_disjoint_pairs_equal_brute_force_on_routing_grid(seed):
    topo, src, destinations, _ = routing_grid(seed)
    found = []
    for dst in destinations:
        paths = simple_paths(topo, src, dst)
        pairs = list(_disjoint_pairs(topo, paths))
        assert pairs == brute_force_disjoint_pairs(paths), dst
        found.append(len(pairs))
    # the walled corner (178 paths, 15 753 pairs), then the far one (184
    # paths, 16 836 pairs)
    assert found == [99, 100]


# -- one enumeration per cell, and the bytes it writes -------------------------


def test_each_cell_enumerates_its_paths_once(tmp_path, monkeypatch):
    # Two destinations under two seeds: validation enumerates each cell's
    # paths once, and the four runs plan over those lists.
    calls = []

    def counted(topology, src, dst):
        calls.append((src, dst))
        return simple_paths(topology, src, dst)

    # Both bindings: the scenario's, and the planner module's own.
    monkeypatch.setattr(scenarios, "simple_paths", counted)
    monkeypatch.setattr(routing, "simple_paths", counted)
    spec = yaml.safe_load((CONFIG_DIR / "multipath_routing.yaml").read_text())
    spec["seeds"] = [1, 2]
    del spec["params"]["dst"]
    spec["sweep"] = {"dst": ["e", "f"]}
    path = tmp_path / "two_cells.yaml"
    path.write_text(yaml.safe_dump(spec))
    rows, aborted = run_experiment(load_config(path))
    assert aborted == 0
    assert sum(row.metric == "merged_rate" for row in rows) == 4
    assert sorted(calls) == [("a", "e"), ("a", "f")]
