"""Event ordering, classical signaling ledger, entanglement attempts."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import qnetsim.engine
from qnetsim.engine import (
    ClassicalLink,
    EventEngine,
    EventKind,
    QuantumLink,
    SignalingScope,
    Topology,
    format_record,
)
from qnetsim.channels import apply_channel, depolarizing_channel
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
    engine.schedule(5, EventKind.PROTOCOL_STEP, handler=lambda eng, ev: fired.append(eng.now))
    engine.run_until(10)
    assert fired == [5]


def test_equal_time_events_fire_in_insertion_order():
    engine = EventEngine(chain_topology(), seed=0)
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(
            7,
            EventKind.PROTOCOL_STEP,
            payload=tag,
            handler=lambda eng, ev: order.append(ev.payload),
        )
    engine.run_until(7)
    assert order == ["first", "second", "third"]


def test_past_time_scheduling_rejected():
    engine = EventEngine(chain_topology(), seed=0)
    engine.schedule(3, EventKind.PROTOCOL_STEP, handler=lambda eng, ev: None)
    engine.run_until(3)
    with pytest.raises(SchedulingError):
        engine.schedule(2, EventKind.PROTOCOL_STEP)


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


def test_each_route_is_delayed_by_its_own_latency_sum():
    # A route's latency is summed once per engine; every later message
    # over it, and every other route, still arrives after its own sum.
    engine = EventEngine(chain_topology((2, 3, 4)), seed=0)
    arrived = []
    routes = [("n0", "n1"), ("n1", "n2", "n3"), ("n0", "n1", "n2", "n3"), ("n3", "n2")]
    for route in routes * 2:
        engine.send_classical(
            msg(route[0], route[-1]), route, SignalingScope.END_TO_END,
            on_deliver=lambda m, route=route: arrived.append((route, engine.now)),
        )
    engine.run_until()
    assert sorted(arrived) == sorted([(r, d) for r, d in zip(routes, (2, 7, 9, 4))] * 2)


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


def test_bit_totals_are_the_ledger_sums_at_every_horizon():
    # The totals run as bits are charged, so each run_until reports the
    # sum of the ledger so far, per scope.
    engine = EventEngine(chain_topology((2, 3)), seed=0)
    link_route, chain_route = ("n0", "n1"), ("n0", "n1", "n2")

    def send(eng, event):
        if event.payload % 3 == 0:
            eng.send_classical(msg(), link_route, SignalingScope.HOST_TO_HOST)
        else:
            eng.send_classical(msg("n0", "n2"), chain_route, SignalingScope.END_TO_END)

    for t in range(12):
        engine.schedule(t, EventKind.PROTOCOL_STEP, payload=t, handler=send)
    for horizon in (0, 1, 4, 9, 20):
        result = engine.run_until(horizon)
        for scope, total in (
            (SignalingScope.HOST_TO_HOST, result.bits_host_to_host),
            (SignalingScope.END_TO_END, result.bits_end_to_end),
        ):
            assert total == sum(e.bits for e in engine.ledger if e.scope is scope)
        assert result.bits_host_to_host == engine.bits_host_to_host
        assert result.bits_end_to_end == engine.bits_end_to_end
    assert (engine.bits_host_to_host, engine.bits_end_to_end) == (8, 16)


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


def quantum_topology(p_link, gen_prob, period=1):
    channel = depolarizing_channel(p_link)
    return Topology(
        ("u", "v"),
        (ClassicalLink("u", "v", 1),),
        (QuantumLink("u", "v", channel, gen_prob, period),),
    )


def test_attempt_entanglement_certain_success():
    topo = quantum_topology(0.0, 1.0)
    engine = EventEngine(topo, seed=1)
    for _ in range(20):
        attempts, resource = engine.attempt_entanglement(topo.quantum_links[0])
        assert attempts == 1
        assert fidelity(resource.state, phi_plus_state()) == pytest.approx(1.0, abs=1e-12)


def test_attempt_entanglement_success_rate():
    # Attempts up to the first success are geometric: mean 1/p, variance
    # (1 - p)/p^2, and the sample variance has variance (mu4 - sigma^4)/n
    # with mu4 = sigma^4 (9 + p^2/(1 - p)) for the geometric law.
    p = 0.3
    topo = quantum_topology(0.0, p)
    engine = EventEngine(topo, seed=2)
    n = 4000
    attempts = np.array(
        [engine.attempt_entanglement(topo.quantum_links[0])[0] for _ in range(n)]
    )
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
    engine = EventEngine(topo, seed=3)
    for _ in range(5):
        _, resource = engine.attempt_entanglement(topo.quantum_links[0])
        assert fidelity(resource.state, phi_plus_state()) == pytest.approx(oracle, abs=1e-9)
    assert oracle == pytest.approx(0.73, abs=1e-12)


def test_link_channel_runs_once_per_link_not_per_attempt(monkeypatch):
    # A stored pair does not decohere, so a link degrades its pair once,
    # one channel application per half, and every attempt hands out a
    # fresh resource over that state.
    calls = []

    def counting_apply_channel(channel, state, targets):
        calls.append(targets)
        return apply_channel(channel, state, targets)

    monkeypatch.setattr(qnetsim.engine, "apply_channel", counting_apply_channel)
    p = 0.3
    oracle = (1 + 3 * (1 - p) ** 2) / 4
    topo = quantum_topology(p, 0.5)
    engine = EventEngine(topo, seed=8)
    resources = [engine.attempt_entanglement(topo.quantum_links[0])[1] for _ in range(200)]
    assert len(calls) == 2
    assert len({id(r) for r in resources}) == 200
    assert not any(r.consumed for r in resources)
    teleport(random_pure_state(engine.rng), resources[0], engine.rng)
    assert resources[0].consumed
    assert not resources[1].consumed
    for resource in resources:
        assert fidelity(resource.state, phi_plus_state()) == pytest.approx(oracle, abs=1e-12)


def test_quantum_link_is_frozen_and_its_pair_read_only():
    link = quantum_topology(0.2, 1.0).quantum_links[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        link.channel = depolarizing_channel(0.5)
    with pytest.raises(ValueError):
        link.pair_state.matrix[0, 0] = 1.0


def test_heralding_charges_one_bit_per_success():
    # One call covers every attempt up to the first success, so it charges
    # exactly one herald, at the tick of that success.
    period = 3
    topo = quantum_topology(0.0, 0.5, period)
    link = topo.quantum_links[0]
    engine = EventEngine(topo, seed=4)
    calls = []

    def attempt(eng, event):
        before = len(eng.ledger)
        attempts, _ = eng.attempt_entanglement(link)
        assert len(eng.ledger) == before + 1
        calls.append((eng.now, attempts))

    for t in range(0, 200, 4):
        engine.schedule(t, EventKind.ENTANGLEMENT_ATTEMPT, handler=attempt)
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
    engine = EventEngine(topo, seed=5)
    engine.schedule(
        0,
        EventKind.ENTANGLEMENT_ATTEMPT,
        handler=lambda eng, _: eng.attempt_entanglement(topo.quantum_links[0]),
    )
    with pytest.raises(EngineAborted) as info:
        engine.run_until()
    assert isinstance(info.value.cause, OverflowError)
    assert "cap of 2^63 - 1" in str(info.value.cause)
    assert engine.ledger == []


def test_run_until_without_horizon_empties_the_queue():
    engine = EventEngine(chain_topology((2,)), seed=0)
    fired = []
    for t in (0, 10**12, 3):
        engine.schedule(t, EventKind.PROTOCOL_STEP, handler=lambda eng, ev: fired.append(eng.now))
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
    engine = EventEngine(topo, seed=seed)
    fidelities = []

    def use_pair(resource, eng, event):
        payload = random_pure_state(eng.rng)
        message, pending = teleport(payload, resource, eng.rng)
        eng.send_classical(
            message,
            ("u", "v"),
            SignalingScope.END_TO_END,
            lambda delivered: fidelities.append(
                fidelity(apply_correction(pending, delivered), payload)
            ),
        )

    def attempt(eng, event):
        attempts, resource = eng.attempt_entanglement(link)
        eng.schedule(
            eng.now + (attempts - 1) * link.attempt_period,
            EventKind.PROTOCOL_STEP,
            payload=f"{event.payload} attempts={attempts}",
            handler=partial(use_pair, resource),
        )

    for k in range(N_STOCHASTIC):
        engine.schedule(k, EventKind.ENTANGLEMENT_ATTEMPT, payload=f"pair {k}", handler=attempt)
    return engine.run_until(), fidelities


def test_identical_seeds_reproduce_traces():
    (first, first_fids), (second, second_fids) = _stochastic_run(99), _stochastic_run(99)
    assert first.events_processed == 3 * N_STOCHASTIC
    assert first.bits_host_to_host == N_STOCHASTIC
    assert first.bits_end_to_end == 2 * N_STOCHASTIC
    assert len(first_fids) == N_STOCHASTIC
    assert first.trace == second.trace
    # Records are plain data: a payload string, or the delivered message
    # and its scope; never a handler.
    for _, _, kind, detail in first.trace:
        if kind is EventKind.CLASSICAL_DELIVER:
            message, scope = detail
            assert isinstance(message, CorrectionMessage) and scope is SignalingScope.END_TO_END
        else:
            assert isinstance(detail, str)
    assert [format_record(r) for r in first.trace] == [format_record(r) for r in second.trace]
    assert first_fids == second_fids
    assert first.bits_host_to_host == second.bits_host_to_host
    assert _stochastic_run(100)[0].trace != first.trace


def test_handler_exception_aborts_with_trace_prefix():
    engine = EventEngine(chain_topology(), seed=0)
    engine.schedule(1, EventKind.PROTOCOL_STEP, payload="ok", handler=lambda eng, ev: None)

    def boom(eng, ev):
        raise RuntimeError("handler exploded")

    engine.schedule(2, EventKind.PROTOCOL_STEP, payload="boom", handler=boom)
    with pytest.raises(EngineAborted) as info:
        engine.run_until(10)
    assert isinstance(info.value.cause, RuntimeError)
    assert len(info.value.trace) == 2
    assert info.value.trace[0][0] == 1
    assert info.value.trace[1][0] == 2


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

