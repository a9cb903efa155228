"""Event ordering, classical signaling ledger, entanglement attempts."""

import math
from functools import partial

import numpy as np
import pytest

import qnetsim.channels
import qnetsim.qstate
from qnetsim.engine import (
    ClassicalLink,
    ClassicalRoute,
    EngineAborted,
    EventEngine,
    EventKind,
    QuantumLink,
    SignalingScope,
    Topology,
    format_record,
)
from qnetsim.channels import depolarizing_channel
from qnetsim.config import ConfigError, parse_config
from qnetsim.protocols import CorrectionMessage, Purpose
from reference import corrected, haar_ket, link_pair_matrix, overlap, teleport_circuit


def chain_topology(latencies=(2, 3, 4)):
    nodes = tuple(f"n{i}" for i in range(len(latencies) + 1))
    links = tuple(
        ClassicalLink(nodes[i], nodes[i + 1], lat) for i, lat in enumerate(latencies)
    )
    return Topology(nodes, links, ())


def msg(origin="n0", target="n1"):
    return CorrectionMessage((0, 1), origin, target, Purpose.TELEPORT)


def route(topology, src, dst):
    return topology.shortest_classical_route(src, dst)


def ignore(*_):
    pass


# -- scheduling ---------------------------------------------------------------


def test_events_fire_at_scheduled_time():
    engine = EventEngine(seed=0)
    fired = []
    engine.schedule(5, EventKind.PROTOCOL_STEP, "", lambda eng, _: fired.append(eng.now))
    engine.run_until()
    assert fired == [5]


def test_equal_time_events_fire_in_insertion_order():
    engine = EventEngine(seed=0)
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(7, EventKind.PROTOCOL_STEP, tag, lambda eng, tag: order.append(tag))
    engine.run_until()
    assert order == ["first", "second", "third"]


def test_handler_receives_the_detail_its_record_shows():
    engine = EventEngine(seed=0)
    detail = ["any", "object"]
    received = []
    engine.schedule(4, EventKind.PROTOCOL_STEP, detail, lambda eng, d: received.append(d))
    result = engine.run_until()
    assert len(received) == 1 and received[0] is detail
    assert result.trace == ((4, 0, EventKind.PROTOCOL_STEP, detail),)
    assert result.trace[0][3] is detail


def test_past_time_scheduling_rejected():
    engine = EventEngine(seed=0)
    engine.schedule(3, EventKind.PROTOCOL_STEP, "", ignore)
    engine.run_until()
    with pytest.raises(ValueError, match="cannot schedule at t=2, current time is 3"):
        engine.schedule(2, EventKind.PROTOCOL_STEP, "", ignore)


def test_empty_queue_terminates_immediately():
    engine = EventEngine(seed=0)
    result = engine.run_until()
    assert result.trace == ()
    assert result.events_processed == 0


def topology_violations(topology):
    """The violations ``parse_config`` reports for a teleport over ``topology``."""
    config = {"scenario": "teleport", "seeds": [1], "params": {"n_teleports": 1}}
    with pytest.raises(ConfigError) as info:
        parse_config({**config, "topology": topology})
    return info.value.violations


def test_topology_validation():
    # Links are plain data; the topology reader checks their fields.
    link = {"a": "a", "b": "b", "latency": 1}
    channel = {"type": "depolarizing", "p": 0.1}
    cases = [
        ({"nodes": ["a"], "classical_links": [{**link, "a": "a", "b": "ghost"}]},
         "classical_links[0]: b 'ghost' is not a topology node"),
        ({"nodes": ["a", "b"], "classical_links": [{**link, "b": "a"}]},
         "classical_links[0]: a and b are both 'a'"),
        ({"nodes": ["a", "b"], "classical_links": [{**link, "latency": 0}]},
         "classical_links[0]: latency must be at least 1, got 0"),
        ({"nodes": ["a", "b"], "classical_links": [link],
          "quantum_links": [{"a": "a", "b": "b", "channel": channel, "gen_success_prob": 1.5}]},
         "quantum_links[0]: gen_success_prob must be a number in [0, 1], got 1.5"),
    ]
    for topology, message in cases:
        assert topology_violations(topology) == [f"<config>: topology: {message}"]
    with pytest.raises(AttributeError, match="can't set attribute"):
        ClassicalLink("a", "b", 1).latency = 0


# -- classical plane ----------------------------------------------------------


def test_single_hop_delivery_latency():
    topology = chain_topology((4,))
    engine = EventEngine(seed=0)
    arrived = []
    engine.send_classical(
        msg(), route(topology, "n0", "n1"), on_deliver=lambda eng, m: arrived.append(eng.now)
    )
    engine.run_until()
    assert arrived == [4]


def test_multi_hop_latency_is_additive():
    engine = EventEngine(seed=0)
    arrived = []
    chain = route(chain_topology((2, 3, 4)), "n0", "n3")
    assert chain == ClassicalRoute(("n0", "n1", "n2", "n3"), 9)
    engine.send_classical(
        msg("n0", "n3"), chain, on_deliver=lambda eng, m: arrived.append(eng.now)
    )
    engine.run_until()
    assert arrived == [9]


def test_each_route_is_delayed_by_its_own_latency_sum():
    # Every message over a route, and every other route, arrives after
    # its own route's summed latency.
    topology = chain_topology((2, 3, 4))
    engine = EventEngine(seed=0)
    arrived = []
    ends = [("n0", "n1"), ("n1", "n3"), ("n0", "n3"), ("n3", "n2")]
    for src, dst in ends * 2:
        engine.send_classical(
            msg(src, dst),
            route(topology, src, dst),
            on_deliver=lambda eng, m, ends=(src, dst): arrived.append((ends, eng.now)),
        )
    engine.run_until()
    assert sorted(arrived) == sorted([(e, d) for e, d in zip(ends, (2, 7, 9, 4))] * 2)


def test_no_delivery_before_latency_elapses():
    # The delivery fires, and is recorded, at the route's summed latency.
    topology = chain_topology((2, 3))
    engine = EventEngine(seed=0)
    arrived = []
    engine.send_classical(
        msg("n0", "n2"),
        route(topology, "n0", "n2"),
        on_deliver=lambda eng, m: arrived.append(eng.now),
    )
    result = engine.run_until()
    assert [time for time, _, _, _ in result.trace] == [5]
    assert arrived == [5]


def test_delivery_record_is_the_message_the_handler_gets():
    # The handler is called as (engine, message), with the record's own
    # detail, and the ledger entry names the message's origin and target.
    # The route supplies only its latency, so a route whose nodes are not
    # the message's leaves the entry naming n0 and n1.
    engine = EventEngine(seed=0)
    message = msg()
    calls = []

    def on_deliver(*args):
        calls.append(args)

    engine.send_classical(message, ClassicalRoute(("r0", "r1"), 2), on_deliver)
    ((time, seq, kind, detail),) = engine.run_until().trace
    assert (time, seq, kind) == (2, 0, EventKind.CLASSICAL_DELIVER)
    assert detail is message
    ((called_engine, called_message),) = calls
    assert called_engine is engine and called_message is message
    (entry,) = engine.ledger
    assert (entry.origin, entry.target) == (detail.origin, detail.target) == ("n0", "n1")
    assert format_record((time, seq, kind, detail)) == (
        "t=2 seq=0 kind=classical_deliver purpose=teleport bits=2 origin=n0 target=n1 "
        "scope=end_to_end"
    )


def test_send_requires_a_route_of_two_nodes():
    engine = EventEngine(seed=0)
    with pytest.raises(ValueError, match="at least two nodes"):
        engine.send_classical(msg("n0", "n0"), route(chain_topology((2,)), "n0", "n0"), ignore)
    assert engine.ledger == []


def chain_with_quantum_link():
    """``chain_topology((2, 3))`` with a certain, noiseless n0-n1 quantum link."""
    chain = chain_topology((2, 3))
    link = QuantumLink("n0", "n1", depolarizing_channel(0.0), 1.0, 1)
    return Topology(chain.nodes, chain.classical_links, (link,))


def test_ledger_records_bits_and_scopes():
    # A herald is charged host-to-host, a correction end-to-end.
    topology = chain_with_quantum_link()
    engine = EventEngine(seed=0)
    engine.attempt_entanglement(topology.quantum_links[0])
    engine.send_classical(msg("n0", "n2"), route(topology, "n0", "n2"), ignore)
    assert engine.bits_host_to_host == 1
    assert engine.bits_end_to_end == 2
    assert [(e.bits, e.scope, e.origin, e.target) for e in engine.ledger] == [
        (1, SignalingScope.HOST_TO_HOST, "n0", "n1"),
        (2, SignalingScope.END_TO_END, "n0", "n2"),
    ]


def test_bit_totals_are_the_ledger_sums():
    # The totals run as bits are charged, so run_until reports the sum of
    # the ledger, per scope.
    topology = chain_with_quantum_link()
    engine = EventEngine(seed=0)
    link, chain_route = topology.quantum_links[0], route(topology, "n0", "n2")

    def send(eng, t):
        if t % 3 == 0:
            eng.attempt_entanglement(link)
        else:
            eng.send_classical(msg("n0", "n2"), chain_route, ignore)

    for t in range(12):
        engine.schedule(t, EventKind.PROTOCOL_STEP, t, send)
    result = engine.run_until()
    for scope, total in (
        (SignalingScope.HOST_TO_HOST, result.bits_host_to_host),
        (SignalingScope.END_TO_END, result.bits_end_to_end),
    ):
        assert total == sum(e.bits for e in engine.ledger if e.scope is scope)
    assert result.bits_host_to_host == engine.bits_host_to_host
    assert result.bits_end_to_end == engine.bits_end_to_end
    assert (engine.bits_host_to_host, engine.bits_end_to_end) == (4, 16)


def test_shortest_classical_route_by_hop_count():
    nodes = ("a", "b", "c", "d")
    links = (
        ClassicalLink("a", "b", 10),
        ClassicalLink("b", "d", 10),
        ClassicalLink("a", "c", 1),
        ClassicalLink("c", "b", 1),
    )
    topo = Topology(nodes + ("island",), links, ())
    # hop count decides, not latency; a-b-d is two hops, and its latency
    # is the sum over its links
    assert topo.shortest_classical_route("a", "d") == ClassicalRoute(("a", "b", "d"), 20)
    assert topo.shortest_classical_route("d", "c") == ClassicalRoute(("d", "b", "c"), 11)
    assert topo.shortest_classical_route("a", "a") == ClassicalRoute(("a",), 0)
    assert topo.shortest_classical_route("a", "island") is None
    assert topo.shortest_classical_route("a", "ghost") is None


# -- quantum plane ------------------------------------------------------------


def phi_plus_fidelity(t):
    """``tr(rho phi+)`` of a pair from its correlations ``t``: phi+ is
    ``(II + XX - YY + ZZ) / 4``."""
    return (t[0, 0] + t[1, 1] - t[2, 2] + t[3, 3]) / 4


def quantum_topology(p_link, gen_prob, period=1):
    channel = depolarizing_channel(p_link)
    return Topology(
        ("u", "v"),
        (ClassicalLink("u", "v", 1),),
        (QuantumLink("u", "v", channel, gen_prob, period),),
    )


def test_attempt_entanglement_certain_success():
    topo = quantum_topology(0.0, 1.0)
    link = topo.quantum_links[0]
    engine = EventEngine(seed=1)
    for _ in range(20):
        assert engine.attempt_entanglement(link) == 1
        assert phi_plus_fidelity(link.pair_correlations) == pytest.approx(1.0, abs=1e-12)


def test_attempt_entanglement_success_rate():
    # Attempts up to the first success are geometric: mean 1/p, variance
    # (1 - p)/p^2, and the sample variance has variance (mu4 - sigma^4)/n
    # with mu4 = sigma^4 (9 + p^2/(1 - p)) for the geometric law.
    p = 0.3
    topo = quantum_topology(0.0, p)
    engine = EventEngine(seed=2)
    n = 4000
    attempts = np.array([engine.attempt_entanglement(topo.quantum_links[0]) for _ in range(n)])
    assert attempts.min() >= 1
    variance = (1 - p) / p**2
    assert abs(attempts.mean() - 1 / p) < 5 * math.sqrt(variance / n)
    sigma_var = variance * math.sqrt((8 + p * p / (1 - p)) / n)
    assert abs(attempts.var(ddof=1) - variance) < 5 * sigma_var


def test_degraded_pair_fidelity_matches_channel_oracle():
    # dep(p) on each half of phi+ leaves fidelity (1 + 3 lambda^2) / 4
    # with lambda = 1 - p, by direct Kraus algebra
    p = 0.2
    lam = 1 - p
    oracle = (1 + 3 * lam * lam) / 4
    topo = quantum_topology(p, 0.5)
    link = topo.quantum_links[0]
    engine = EventEngine(seed=3)
    for _ in range(5):
        engine.attempt_entanglement(link)
        assert phi_plus_fidelity(link.pair_correlations) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(0.73, abs=1e-12)


def test_link_pair_is_read_off_its_channel_without_a_register(monkeypatch):
    # A stored pair does not decohere, so every attempt that succeeds
    # delivers the same pair, and the link applies no gate or channel to
    # a density matrix to make it, nor builds one.
    def no_register(*args, **kwargs):
        raise AssertionError("a link pair touched the density-matrix register")

    monkeypatch.setattr(qnetsim.qstate, "apply_operators", no_register)
    monkeypatch.setattr(qnetsim.channels, "apply_operators", no_register)
    monkeypatch.setattr(qnetsim.qstate.QuantumState, "__new__", no_register)
    p = 0.3
    oracle = (1 + 3 * (1 - p) ** 2) / 4
    topo = quantum_topology(p, 0.5)
    link = topo.quantum_links[0]
    engine = EventEngine(seed=8)
    pairs = []
    for _ in range(200):
        engine.attempt_entanglement(link)
        pairs.append(link.pair_correlations)
    assert all(np.array_equal(pair, pairs[0]) for pair in pairs)
    assert phi_plus_fidelity(pairs[0]) == pytest.approx(oracle, abs=1e-12)


def test_quantum_link_is_frozen_and_its_pair_read_only():
    # A write into the correlations a link returned leaves its pair alone.
    link = quantum_topology(0.2, 1.0).quantum_links[0]
    with pytest.raises(AttributeError, match="can't set attribute"):
        link.channel = depolarizing_channel(0.5)
    link.pair_correlations[0, 0] = 5.0
    assert link.pair_correlations[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_heralding_charges_one_bit_per_success():
    # One call covers every attempt up to the first success, so it charges
    # exactly one herald, at the tick of that success.
    period = 3
    topo = quantum_topology(0.0, 0.5, period)
    link = topo.quantum_links[0]
    engine = EventEngine(seed=4)
    calls = []

    def attempt(eng, _detail):
        before = len(eng.ledger)
        attempts = eng.attempt_entanglement(link)
        assert len(eng.ledger) == before + 1
        calls.append((eng.now, attempts))

    for t in range(0, 200, 4):
        engine.schedule(t, EventKind.ENTANGLEMENT_ATTEMPT, "", attempt)
    engine.run_until()
    assert len(calls) == 50
    assert any(attempts > 1 for _, attempts in calls)
    assert [(e.time, e.bits, e.scope, e.purpose, e.origin, e.target) for e in engine.ledger] == [
        (now + (attempts - 1) * period, 1, SignalingScope.HOST_TO_HOST, "herald", "u", "v")
        for now, attempts in calls
    ]
    assert engine.bits_host_to_host == 50


def test_attempt_at_the_geometric_cap_aborts_with_its_cause():
    # NumPy clamps a geometric draw at 2^63 - 1, which every draw at
    # p = 1e-300 reaches; that is no waiting time, so the attempt raises.
    topo = quantum_topology(0.0, 1e-300)
    engine = EventEngine(seed=5)
    engine.schedule(
        0,
        EventKind.ENTANGLEMENT_ATTEMPT,
        "",
        lambda eng, _: eng.attempt_entanglement(topo.quantum_links[0]),
    )
    with pytest.raises(EngineAborted) as info:
        engine.run_until()
    assert isinstance(info.value.cause, OverflowError)
    assert "cap of 2^63 - 1" in str(info.value.cause)
    assert engine.ledger == []


def test_run_until_without_horizon_empties_the_queue():
    engine = EventEngine(seed=0)
    fired = []
    for t in (0, 10**12, 3):
        engine.schedule(t, EventKind.PROTOCOL_STEP, "", lambda eng, _: fired.append(eng.now))
    result = engine.run_until()
    assert fired == [0, 3, 10**12]
    assert result.events_processed == 3
    assert engine.now == 10**12


# -- determinism and aborts ---------------------------------------------------


N_STOCHASTIC = 20


def _stochastic_run(seed):
    # Each attempt event makes a pair, then teleports a random state over
    # it at the pair's success tick and signals the correction.
    topo = quantum_topology(0.1, 0.3, 2)
    link = topo.quantum_links[0]
    engine = EventEngine(seed=seed)
    fidelities = []
    link_pair = link_pair_matrix(link.channel.kraus_ops)

    def use_pair(pair, eng, _label):
        ket = haar_ket(eng.rng)
        payload = np.outer(ket, ket.conj())
        bits, pending = teleport_circuit(payload, pair, eng.rng)
        eng.send_classical(
            CorrectionMessage(bits, link.a, link.b, Purpose.TELEPORT),
            route(topo, "u", "v"),
            lambda _eng, delivered: fidelities.append(
                overlap(corrected(pending, delivered.bits), payload)
            ),
        )

    def attempt(eng, label):
        attempts = eng.attempt_entanglement(link)
        eng.schedule(
            eng.now + (attempts - 1) * link.attempt_period,
            EventKind.PROTOCOL_STEP,
            f"{label} attempts={attempts}",
            partial(use_pair, link_pair),
        )

    for k in range(N_STOCHASTIC):
        engine.schedule(k, EventKind.ENTANGLEMENT_ATTEMPT, f"pair {k}", attempt)
    return engine.run_until(), fidelities


def test_identical_seeds_reproduce_traces():
    (first, first_fids), (second, second_fids) = _stochastic_run(99), _stochastic_run(99)
    assert first.events_processed == 3 * N_STOCHASTIC
    assert first.bits_host_to_host == N_STOCHASTIC
    assert first.bits_end_to_end == 2 * N_STOCHASTIC
    assert len(first_fids) == N_STOCHASTIC
    assert first.trace == second.trace
    # Records are plain data: a label string, or the delivered message;
    # never a handler.
    for _, _, kind, detail in first.trace:
        if kind is EventKind.CLASSICAL_DELIVER:
            assert isinstance(detail, CorrectionMessage)
        else:
            assert isinstance(detail, str)
    assert [format_record(r) for r in first.trace] == [format_record(r) for r in second.trace]
    assert first_fids == second_fids
    assert first.bits_host_to_host == second.bits_host_to_host
    assert _stochastic_run(100)[0].trace != first.trace


def test_handler_exception_aborts_with_trace_prefix():
    engine = EventEngine(seed=0)
    engine.schedule(1, EventKind.PROTOCOL_STEP, "ok", ignore)

    def boom(eng, _label):
        raise RuntimeError("handler exploded")

    engine.schedule(2, EventKind.PROTOCOL_STEP, "boom", boom)
    with pytest.raises(EngineAborted) as info:
        engine.run_until()
    assert isinstance(info.value.cause, RuntimeError)
    assert len(info.value.trace) == 2
    assert info.value.trace[0][0] == 1
    assert info.value.trace[1][0] == 2
