"""The engine's timer garbage, counted rather than timed.

CPython's collector runs a full pass once the objects promoted to its
oldest generation exceed a quarter of it, so what a long simulation pays
the collector is decided by how much *medium-lived* garbage its timer
bookkeeping makes.  These tests pin the three places that used to make
it (see :mod:`repro.sim.engine`): a replied request's timeout, the heap
entries, and the per-node loop-timer bookkeeping.
"""

import gc
import weakref

from repro.net.latency import PairwiseLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator
from tests.conftest import seeded_ring


def _request_with_closure(tr, fired):
    """Send one request whose ``on_timeout`` is a closure only the
    transport refers to; return a weak reference to it."""
    payload = ["state the timeout path would need"]

    def on_timeout():
        fired.append(("timeout", payload))

    tr.request(
        Message("client", "server", "ask"),
        timeout=1000.0,
        on_reply=lambda reply: fired.append("reply"),
        on_timeout=on_timeout,
    )
    return weakref.ref(on_timeout)


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
        closure = _request_with_closure(tr, fired)
        assert closure() is not None
        sim.run(until=1.0)  # the reply is in; the timeout is 999 s away
        assert fired == ["reply"]
        assert closure() is None
    finally:
        gc.enable()
    sim.run()
    assert fired == ["reply", "later"]
    assert sim.now == 500.0  # the cancelled timeout was not waited for


def test_pending_heap_entries_are_untracked_after_a_young_pass():
    sim = Simulator()
    handles = [sim.schedule(float(i % 7), print, i) for i in range(100)]
    for handle in handles[::3]:
        handle.cancel()
    gc.collect(0)
    assert len(sim) == 100
    assert not any(gc.is_tracked(entry) for entry in sim._queue._heap)


def test_ring_steady_state_accumulates_nothing():
    n = 200
    net = seeded_ring(n)
    net.run(until=60.0)
    gc.collect()
    before = len(gc.get_objects())
    net.run(until=600.0)  # ~16 more probe rounds per node
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown <= 4 * n, f"{grown} tracked objects accumulated ({grown / n:.1f} per node)"
    assert sum(node.stats.probes_sent for node in net.live_nodes()) >= 15 * n
    for node in net.live_nodes():
        timers = node.ctx.loop_timers
        assert len(timers) <= 5
        assert set(timers) <= {"probe", "refresh", "sweep", "audit", "level"}


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
