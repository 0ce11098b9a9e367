"""The engine's timer garbage, counted rather than timed.

CPython's collector runs a full pass once the objects promoted to its
oldest generation exceed a quarter of it, so what a long simulation pays
the collector is decided by how much *medium-lived* garbage its timer
bookkeeping makes.  These tests pin the places that used to make it (see
:mod:`repro.sim.engine`): a replied request's timeout and callbacks, the
heap entries, the per-node loop timers — one re-armed handle per loop —
and what a seeded node keeps for the collector to walk at all; and they
count the collector passes a probe round costs.
"""

import gc
import sys
import weakref
from array import array

from repro.core.config import ProtocolConfig
from repro.core.peerlist import SHARED
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator
from tests.conftest import seeded_ring


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


def test_a_probe_round_costs_few_collector_passes():
    """Collector passes per 10^4 events of a 2,000-node ring in steady
    state (600 sim-s, 1.2·10^5 events, all §4.1 probing), counted with a
    ``gc.callbacks`` hook.  35.3 young / 3.2 middle / 0.25 full passes
    while each round scheduled a fresh handle and bound method per loop
    and built two closures per probe; 11.9 / 1.0 / 0.08 with one
    re-armed handle per loop and request callbacks bound once (CPython
    3.11's default thresholds)."""
    net = seeded_ring(2000)
    net.run(until=60.0)
    passes = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.collect()
    first = net.sim.events_executed
    gc.callbacks.append(count)
    try:
        net.run(until=660.0)
    finally:
        gc.callbacks.remove(count)
    per_10k = [p * 1e4 / (net.sim.events_executed - first) for p in passes]
    assert net.sim.events_executed - first == 120_000
    assert per_10k[0] <= 20, f"{per_10k[0]:.1f} young passes per 10^4 events"
    assert passes[2] <= 1, f"{passes[2]} full passes"


def test_a_seeded_ring_keeps_few_tracked_objects_per_node():
    """What one node costs the collector at rest, counted over a
    2,000-node ring: every object seeding added that a full pass walks.
    80.1 per node while the top-node lists held ``Pointer``s, the node
    context had an instance dict and every node spawned its generator up
    front; 56.3 with rows, slots and a generator spawned at first draw;
    53.1 with the peer-list address column gone; 61.1 with each node's
    eight request callbacks (three probe kinds and the tree edge, a reply
    and a timeout each) bound once instead of a closure pair per
    request."""
    n = 2000
    gc.collect()
    before = len(gc.get_objects())
    net = seeded_ring(n)
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / n
    assert len(net.live_nodes()) == n
    assert per_node <= 64, f"{per_node:.1f} tracked objects per node"


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


def _address_exceptions(node):
    """Rows of ``node``'s lists whose address is not the table's."""
    ctx = node.ctx
    extras = list(ctx.peer_list._extras.values()) + list(ctx.top_list._extras)
    if ctx.cross_parts._rows is not None:
        extras += ctx.cross_parts._rows._extras
    return sum(1 for row in extras if row is not None and row[2] is not SHARED)


def test_a_level_zero_peer_list_row_costs_at_most_22_bytes():
    """What a row of the paper's commonest peer list weighs: 1,000 nodes,
    all at level 0, each holding all 1,000.  Every column and sparse map
    of every list is counted, and the network's id -> address table once.
    36.9 bytes per row with an address column, ``'H'`` levels and ``'q'``
    seqs; 21.4 with the table, ``'B'`` and ``'i'``.  An honest network
    writes every address its table holds, so no row keeps its own."""
    n = 1000
    net = PeerWindowNetwork(
        config=ProtocolConfig(level_check_interval=1e6),
        topology=PairwiseLatencyModel(),
        master_seed=0,
    )
    net.seed_nodes([{"threshold_bps": 1e9, "level": 0}] * n)
    live = net.live_nodes()
    table = net._addresses
    rows = size = 0
    for node in live:
        rows += len(node.peer_list)
        for part in vars(node.peer_list).values():
            if isinstance(part, (list, dict, array)) and part is not table:
                size += sys.getsizeof(part)
    size += sys.getsizeof(table)
    assert rows == n * n
    assert size / rows <= 22, f"{size / rows:.1f} bytes per peer-list row"
    assert sum(_address_exceptions(node) for node in live) == 0
