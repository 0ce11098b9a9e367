"""The engine's timer garbage, counted rather than timed.

CPython's collector runs a full pass once the objects promoted to its
oldest generation exceed a quarter of it, so what a long simulation pays
the collector is decided by how much *medium-lived* garbage its timer
bookkeeping makes.  These tests pin the places that used to make it (see
:mod:`repro.sim.engine`): a replied request's timeout and callbacks, the
heap entries, the per-node loop timers — one re-armed handle per loop —
and what a seeded node keeps for the collector to walk at all.  The
counted ones — the collector passes a probe round costs, what a steady ring
accumulates, what seeding leaves and what a peer-list row weighs — are rows
of ``tests/test_costs.py``.
"""

import gc
import weakref

import pytest

from repro.net.latency import PairwiseLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator
from tests.conftest import seeded_ring
from tests.test_costs import FULL, YOUNG, check


class _State:
    """Per-request state handed to a request as an argument."""


def _request_with_closure(tr, fired):
    """Send one request whose ``on_timeout`` is a closure, and whose
    argument an object, only the transport refers to; return weak
    references to both."""
    payload = ["state the timeout path would need"]
    state = _State()

    def on_timeout(_state):
        fired.append(("timeout", payload))

    tr.request(
        Message("client", "server", "ask"),
        1000.0,
        lambda reply, got: fired.append(("reply", got is state)),
        on_timeout,
        state,
    )
    return weakref.ref(on_timeout), weakref.ref(state)


def test_replied_request_releases_its_timeout_closure_by_refcount():
    sim = Simulator()
    tr = Transport(sim, PairwiseLatencyModel())
    tr.register("client", lambda msg: None)
    tr.register("server", lambda msg: tr.send(msg.make_reply("answer")))
    fired = []
    # A live event ahead of the timeout, so the cancelled timeout is not
    # simply discarded as the head of the queue.
    sim.schedule(500.0, fired.append, "later")
    gc.disable()  # whatever dies below dies by reference count alone
    try:
        closure, state = _request_with_closure(tr, fired)
        assert closure() is not None and state() is not None
        sim.run(until=1.0)  # the reply is in; the timeout is 999 s away
        assert fired == [("reply", True)]
        assert closure() is None
        assert state() is None
    finally:
        gc.enable()
    sim.run()
    assert fired == [("reply", True), "later"]
    assert sim.now == 500.0  # the cancelled timeout was not waited for


def test_pending_heap_entries_are_untracked_after_a_young_pass():
    sim = Simulator()
    handles = [sim.schedule(float(i % 7), print, i) for i in range(100)]
    for handle in handles[::3]:
        handle.cancel()
    gc.collect(0)
    assert len(sim) == 100
    assert not any(gc.is_tracked(entry) for entry in sim._queue._heap)


@pytest.mark.costs
def test_ring_steady_state_accumulates_nothing():
    check("ring_steady", 200)


def test_a_probe_loop_keeps_one_timer_handle_for_its_life():
    net = seeded_ring(20)
    period = net.config.probe_interval
    net.run(until=1.5 * period)
    nodes = net.live_nodes()
    first = [node.ctx.loop_timers["probe"] for node in nodes]
    net.run(until=101.5 * period)
    # A node alone in its group re-arms without probing anyone.
    probing = [node.stats.probes_sent for node in nodes if node.stats.probes_sent]
    assert len(probing) >= 5 and min(probing) >= 100
    assert all(
        node.ctx.loop_timers["probe"] is handle for node, handle in zip(nodes, first)
    )


@pytest.mark.costs
def test_a_probe_round_costs_few_collector_passes():
    check("rounds", 2000, YOUNG, FULL)


@pytest.mark.costs
def test_a_seeded_ring_keeps_few_tracked_objects_per_node():
    check("rounds", 2000, "tracked/node")


def test_departure_cancels_every_loop_timer():
    net = seeded_ring(40)
    net.run(until=45.0)
    keys = list(net.nodes)
    for depart, key in ((net.crash, keys[3]), (net.leave, keys[8])):
        ctx = net.node(key).ctx
        timers = list(ctx.loop_timers.values())
        assert timers and all(t.active for t in timers)
        depart(key)
        assert not ctx.loop_timers
        assert not any(t.active for t in timers)


@pytest.mark.costs
def test_a_level_zero_peer_list_row_costs_at_most_22_bytes():
    check("level0_rows", 1000)
