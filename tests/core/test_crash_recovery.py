"""Crash recovery: the §4.3 rejoin with stale-cache reconciliation.

A recovered node does not discard its pre-crash peer list.  The
downloaded snapshot refreshes what it confirms; cached entries it does
*not* confirm are kept and actively verified — live ones survive (state
a discard-based rejoin would lose), dead ones are probed out and
announced.  The handshake itself retries with exponential backoff and
fails a download over to alternate top nodes.
"""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolConfig
from repro.core.errors import NotAliveError
from repro.core.protocol import PeerWindowNetwork


def recovery_config(**overrides) -> ProtocolConfig:
    base = dict(
        id_bits=16,
        probe_interval=5.0,
        probe_timeout=1.0,
        probe_misses_to_fail=2,
        multicast_ack_timeout=1.0,
        report_timeout=2.0,
        level_check_interval=1e6,
        multicast_processing_delay=0.1,
        join_retry_attempts=2,
        join_retry_backoff=2.0,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def recovery_network(n=16, seed=7, observability=False, **config_overrides):
    net = PeerWindowNetwork(config=recovery_config(**config_overrides),
                            master_seed=seed, observability=observability)
    keys = net.seed_nodes([1e9] * n)
    net.run(until=10.0)
    return net, keys


def holders_of(net, node_id):
    return {n.address for n in net.live_nodes()
            if node_id.value in set(n.peer_list.ids())}


class TestRejoin:
    def test_recover_after_full_eviction(self):
        net, keys = recovery_network()
        victim = keys[3]
        node = net.crash(victim)
        vid = node.node_id
        net.run(until=net.sim.now + 40.0)
        assert holders_of(net, vid) == set(), "obituary should evict the crash"

        results = []
        net.recover_node(node, keys[0], on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert results == [True]
        assert node.alive
        # The JOIN multicast re-announced the node to its whole audience.
        live = {n.address for n in net.live_nodes()}
        assert holders_of(net, vid) == live
        assert net.node_error_rate(node) == 0.0

    def test_recover_while_alive_rejected(self):
        net, keys = recovery_network(n=8)
        node = net.node(keys[2])
        with pytest.raises(NotAliveError):
            node.recover_via(keys[0])

    def test_recover_registered_key_rejected(self):
        net, keys = recovery_network(n=8)
        node = net.node(keys[2])
        with pytest.raises(ValueError):
            net.recover_node(node, keys[0])


class TestReconciliation:
    def test_unconfirmed_live_cached_pointer_survives(self):
        """A cached pointer the snapshot does not confirm but whose node
        is alive must be kept: verification probes it, it answers.  A
        discard-based rejoin would lose it."""
        net, keys = recovery_network()
        victim, kept = keys[3], keys[5]
        kept_id = net.node(kept).node_id
        node = net.crash(victim)
        assert kept_id.value in set(node.peer_list.ids())  # cached across the crash
        net.run(until=net.sim.now + 40.0)
        # Erase `kept` from every live peer list (so no download snapshot
        # can confirm it) without killing it.
        for other in net.live_nodes():
            if other.address != kept:
                other.peer_list.remove(kept_id)

        results = []
        net.recover_node(node, keys[0], on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert results == [True]
        assert kept_id.value in set(node.peer_list.ids()), (
            "reconciliation dropped a cached pointer to a live node"
        )

    def test_unconfirmed_dead_cached_pointer_probed_out(self):
        """A cached pointer to a node that died during the downtime is
        kept only until verification: the probes go unanswered and it is
        removed with an obituary, bounding its staleness."""
        net, keys = recovery_network()
        victim, casualty = keys[3], keys[5]
        node = net.crash(victim)
        dead_id = net.node(casualty).node_id
        assert dead_id.value in set(node.peer_list.ids())
        net.crash(casualty)  # stays down
        net.run(until=net.sim.now + 40.0)

        results = []
        net.recover_node(node, keys[0], on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert results == [True]
        assert dead_id.value not in set(node.peer_list.ids()), (
            "verification failed to evict a dead cached pointer"
        )
        assert net.node_error_rate(node) == 0.0

    def test_every_verify_probe_span_is_ended(self):
        """With observability on, verification opens one ``probe.verify``
        span per probe: a live cached node acks it, a dead one lets it time
        out.  Each is ended on its own path — none is left in flight to
        read as an operation that never finished."""
        net, keys = recovery_network(observability=True)
        victim, kept, casualty = keys[3], keys[5], keys[6]
        kept_id = net.node(kept).node_id
        node = net.crash(victim)
        net.crash(casualty)  # stays down
        net.run(until=net.sim.now + 40.0)
        for other in net.live_nodes():
            if other.address != kept:
                other.peer_list.remove(kept_id)

        results = []
        net.recover_node(node, keys[0], on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert results == [True]
        verify = [s for s in net.spans() if s.name == "probe.verify"]
        assert {s.status for s in verify} == {"ok", "timeout"}
        assert [s for s in verify if s.end is None] == []

    def test_unconfirmed_pointers_are_verified_in_ascending_id_order(self):
        """Verification probes the unconfirmed cached pointers in the
        cached list's order, ascending id.  A set between the cache and
        the verify loop iterates 128-bit ids in hash order instead, which
        reorders the probes and every span, sequence number and message
        after them."""
        net, keys = recovery_network(observability=True, id_bits=128)
        victim, kept = keys[3], keys[4:10]
        kept_nids = [net.node(k).node_id for k in kept]
        kept_ids = {nid.value for nid in kept_nids}
        node = net.crash(victim)
        assert kept_ids <= set(node.peer_list.ids())  # cached across the crash
        net.run(until=net.sim.now + 40.0)
        # No download snapshot can confirm the kept nodes; they stay alive.
        for other in net.live_nodes():
            for nid in kept_nids:
                if nid.value != other.node_id.value:
                    other.peer_list.remove(nid)

        results = []
        net.recover_node(node, keys[0], on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert results == [True]
        id_of = {str(k): net.node(k).node_id.value for k in keys}
        probed = [
            id_of[s.attrs["target"]] for s in net.spans()
            if s.node == victim and s.name == "probe.verify" and s.parent_id is None
        ]
        assert set(probed) == kept_ids
        assert probed == sorted(probed)


class TestHandshakeResilience:
    def test_retry_backoff_through_dead_bootstrap(self):
        """Every handshake step through a dead bootstrap times out; the
        join retries with exponential backoff and finally reports
        failure (attempts = 1 + join_retry_attempts)."""
        net, keys = recovery_network()
        node = net.crash(keys[3])
        dead_bootstrap = keys[5]
        net.crash(dead_bootstrap)
        net.run(until=net.sim.now + 40.0)

        results = []
        start = net.sim.now
        net.recover_node(node, dead_bootstrap, on_done=results.append)
        # Attempt timeline (report_timeout=2, backoff=2): timeout at +2,
        # retry at +4, timeout +6, retry +10, timeout +12 -> failure.
        net.run(until=start + 8.0)
        assert results == [], "gave up before exhausting backoff retries"
        net.run(until=start + 20.0)
        assert results == [False]
        assert not node.alive

    def test_download_fails_over_to_alternate_top(self):
        """A silent download server does not burn a handshake retry: the
        joiner falls back to an alternate top node learned during steps
        1-2 (here with retries disabled, so success proves failover)."""
        net, keys = recovery_network(join_retry_attempts=0)
        node = net.crash(keys[3])
        net.run(until=net.sim.now + 40.0)

        bootstrap = keys[0]
        server = net.node(bootstrap)
        swallowed = []
        server.join.on_download = swallowed.append  # drop, never reply
        results = []
        net.recover_node(node, bootstrap, on_done=results.append)
        net.run(until=net.sim.now + 30.0)
        assert swallowed, "primary download server was never asked"
        assert results == [True], "failover to an alternate top did not happen"
        assert node.alive
        assert net.node_error_rate(node) == 0.0
