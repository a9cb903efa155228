"""Event ordering, classical signaling ledger, entanglement attempts."""

import math

import numpy as np
import pytest

from qnetsim.engine import (
    ClassicalLink,
    EventEngine,
    EventKind,
    QuantumLink,
    SignalingScope,
    Topology,
)
from qnetsim.channels import depolarizing_channel
from qnetsim.errors import EngineAborted, SchedulingError, UnreachableError
from qnetsim.protocols import (
    CorrectionMessage,
    Purpose,
    apply_correction,
    make_bell_pair,
    phi_plus_state,
    teleport,
)
from qnetsim.qstate import fidelity, random_pure_state


def chain_topology(latencies=(2, 3, 4)):
    nodes = tuple(f"n{i}" for i in range(len(latencies) + 1))
    links = tuple(
        ClassicalLink(nodes[i], nodes[i + 1], lat) for i, lat in enumerate(latencies)
    )
    return Topology(nodes, links, ())


def msg(origin="n0", target="n1"):
    return CorrectionMessage((0, 1), origin, target, Purpose.TELEPORT)


# -- scheduling ---------------------------------------------------------------


def test_events_fire_at_scheduled_time():
    engine = EventEngine(chain_topology(), seed=0)
    fired = []
    engine.schedule(5, EventKind.CUSTOM, handler=lambda eng, ev: fired.append(eng.now))
    engine.run_until(10)
    assert fired == [5]


def test_equal_time_events_fire_in_insertion_order():
    engine = EventEngine(chain_topology(), seed=0)
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(
            7, EventKind.CUSTOM, payload=tag, handler=lambda eng, ev: order.append(ev.payload)
        )
    engine.run_until(7)
    assert order == ["first", "second", "third"]


def test_past_time_scheduling_rejected():
    engine = EventEngine(chain_topology(), seed=0)
    engine.schedule(3, EventKind.CUSTOM, handler=lambda eng, ev: None)
    engine.run_until(3)
    with pytest.raises(SchedulingError):
        engine.schedule(2, EventKind.CUSTOM)


def test_empty_queue_terminates_immediately():
    engine = EventEngine(chain_topology(), seed=0)
    result = engine.run_until(100)
    assert result.trace == ()
    assert result.events_processed == 0


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(("a",), (ClassicalLink("a", "ghost", 1),), ())
    with pytest.raises(ValueError):
        Topology(("a", "b"), (ClassicalLink("a", "a", 1),), ())
    with pytest.raises(ValueError):
        ClassicalLink("a", "b", 0)
    with pytest.raises(ValueError):
        QuantumLink("a", "b", depolarizing_channel(0.1), 1.5, 1)


# -- classical plane ----------------------------------------------------------


def test_single_hop_delivery_latency():
    engine = EventEngine(chain_topology((4,)), seed=0)
    arrived = []
    engine.send_classical(
        msg(), ("n0", "n1"), SignalingScope.HOST_TO_HOST,
        on_deliver=lambda m: arrived.append(engine.now),
    )
    engine.run_until(10)
    assert arrived == [4]


def test_multi_hop_latency_is_additive():
    engine = EventEngine(chain_topology((2, 3, 4)), seed=0)
    arrived = []
    engine.send_classical(
        msg("n0", "n3"), ("n0", "n1", "n2", "n3"), SignalingScope.END_TO_END,
        on_deliver=lambda m: arrived.append(engine.now),
    )
    engine.run_until(20)
    assert arrived == [9]


def test_no_delivery_before_latency_elapses():
    engine = EventEngine(chain_topology((5,)), seed=0)
    arrived = []
    engine.send_classical(
        msg(), ("n0", "n1"), SignalingScope.HOST_TO_HOST,
        on_deliver=lambda m: arrived.append(engine.now),
    )
    engine.run_until(4)
    assert arrived == []
    engine.run_until(5)
    assert arrived == [5]


def test_send_requires_existing_links():
    engine = EventEngine(chain_topology((2,)), seed=0)
    with pytest.raises(UnreachableError):
        engine.send_classical(msg("n0", "n1"), ("n1", "n0x"), SignalingScope.HOST_TO_HOST)
    with pytest.raises(ValueError):
        engine.send_classical(
            msg("n0", "n2"), ("n0", "n1", "n2"), SignalingScope.HOST_TO_HOST
        )


def test_ledger_records_bits_and_scopes():
    engine = EventEngine(chain_topology((2, 3)), seed=0)
    engine.send_classical(msg(), ("n0", "n1"), SignalingScope.HOST_TO_HOST)
    engine.send_classical(msg("n0", "n2"), ("n0", "n1", "n2"), SignalingScope.END_TO_END)
    assert engine.bits_host_to_host == 2
    assert engine.bits_end_to_end == 2
    assert len(engine.ledger) == 2
    assert {e.scope for e in engine.ledger} == {
        SignalingScope.HOST_TO_HOST,
        SignalingScope.END_TO_END,
    }


def test_shortest_classical_route_by_hop_count():
    nodes = ("a", "b", "c", "d")
    links = (
        ClassicalLink("a", "b", 10),
        ClassicalLink("b", "d", 10),
        ClassicalLink("a", "c", 1),
        ClassicalLink("c", "b", 1),
    )
    topo = Topology(nodes, links, ())
    # hop count decides, not latency; a-b-d is two hops
    assert topo.shortest_classical_route("a", "d") == ("a", "b", "d")
    assert topo.shortest_classical_route("a", "ghost") is None


# -- quantum plane ------------------------------------------------------------


def quantum_topology(p_link, gen_prob):
    channel = depolarizing_channel(p_link)
    return Topology(
        ("u", "v"),
        (ClassicalLink("u", "v", 1),),
        (QuantumLink("u", "v", channel, gen_prob, 1),),
    )


def test_attempt_entanglement_certain_success():
    topo = quantum_topology(0.0, 1.0)
    engine = EventEngine(topo, seed=1)
    for _ in range(20):
        resource = engine.attempt_entanglement(topo.quantum_links[0])
        assert resource is not None
        assert fidelity(resource.state, phi_plus_state()) == pytest.approx(1.0, abs=1e-12)


def test_attempt_entanglement_success_rate():
    topo = quantum_topology(0.0, 0.3)
    engine = EventEngine(topo, seed=2)
    n = 100_000
    hits = sum(engine.attempt_entanglement(topo.quantum_links[0]) is not None for _ in range(n))
    assert abs(hits / n - 0.3) < 0.01


def test_degraded_pair_fidelity_matches_channel_oracle():
    # dep(p) on each half of phi+ leaves fidelity (1 + 3 lambda^2) / 4
    # with lambda = 1 - p, by direct Kraus algebra
    p = 0.2
    lam = 1 - p
    oracle = (1 + 3 * lam * lam) / 4
    topo = quantum_topology(p, 1.0)
    engine = EventEngine(topo, seed=3)
    resource = engine.attempt_entanglement(topo.quantum_links[0])
    assert resource is not None
    assert fidelity(resource.state, phi_plus_state()) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(0.73, abs=1e-12)


def test_heralding_charges_one_bit_per_success():
    topo = quantum_topology(0.0, 0.5)
    engine = EventEngine(topo, seed=4)
    successes = sum(
        engine.attempt_entanglement(topo.quantum_links[0]) is not None for _ in range(500)
    )
    herald_entries = [e for e in engine.ledger if e.purpose == "herald"]
    assert len(herald_entries) == successes
    assert all(e.bits == 1 and e.scope is SignalingScope.HOST_TO_HOST for e in herald_entries)
    assert engine.bits_host_to_host == successes


# -- determinism and aborts ---------------------------------------------------


def _stochastic_run(seed):
    topo = quantum_topology(0.1, 0.6)
    engine = EventEngine(topo, seed=seed)

    def attempt(eng, event):
        resource = eng.attempt_entanglement(topo.quantum_links[0])
        if resource is None and eng.now < 50:
            eng.schedule(eng.now + 1, EventKind.ENTANGLEMENT_ATTEMPT, handler=attempt)

    engine.schedule(0, EventKind.ENTANGLEMENT_ATTEMPT, handler=attempt)
    return engine.run_until(100)


def test_identical_seeds_reproduce_traces():
    first = _stochastic_run(99)
    second = _stochastic_run(99)
    assert first.trace == second.trace
    assert hash(first.trace) == hash(second.trace)
    assert first.bits_host_to_host == second.bits_host_to_host


def test_handler_exception_aborts_with_trace_prefix():
    engine = EventEngine(chain_topology(), seed=0)
    engine.schedule(1, EventKind.CUSTOM, payload="ok", handler=lambda eng, ev: None)

    def boom(eng, ev):
        raise RuntimeError("handler exploded")

    engine.schedule(2, EventKind.CUSTOM, payload="boom", handler=boom)
    with pytest.raises(EngineAborted) as info:
        engine.run_until(10)
    assert isinstance(info.value.cause, RuntimeError)
    assert len(info.value.trace) == 2
    assert "t=1" in info.value.trace[0]
    assert "t=2" in info.value.trace[1]


def test_severed_classical_link_aborts_teleport_uncorrected():
    # quantum link exists, classical link does not: the correction cannot
    # be signaled, so the run aborts and the destination is never corrected
    topo = Topology(
        ("u", "v"), (), (QuantumLink("u", "v", depolarizing_channel(0.0), 1.0, 1),)
    )
    engine = EventEngine(topo, seed=7)
    corrected = []

    def step(eng, event):
        payload = random_pure_state(eng.rng)
        message, pending = teleport(payload, make_bell_pair(("u", "v")), eng.rng)
        eng.send_classical(
            message,
            ("u", "v"),
            SignalingScope.END_TO_END,
            lambda delivered: corrected.append(apply_correction(pending, delivered)),
        )

    engine.schedule(0, EventKind.PROTOCOL_STEP, handler=step)
    with pytest.raises(EngineAborted) as info:
        engine.run_until(5)
    assert isinstance(info.value.cause, UnreachableError)
    assert len(info.value.trace) == 1
    assert corrected == []
    assert engine.ledger == []

