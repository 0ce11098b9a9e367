"""Network-partition failure injection.

A transient partition is the harshest test of the accuracy machinery.
Two regimes, both pinned here:

* a **short** cut (shorter than the failure-detection horizon) rides out
  transparently — retries and redundant probing absorb it and the error
  rate returns to zero;
* a **long** cut makes each side declare the other dead and evict it;
  after that, *no pointer crosses the former cut*, so no multicast can —
  recovery requires out-of-band rendezvous (a bootstrap contact), exactly
  like every membership protocol without external anchors.  The paper
  does not claim partition recovery; we pin the honest behavior.
"""


from repro.core.protocol import PeerWindowNetwork
from repro.net.message import Message
from tests.conftest import fast_config


def partition_network(n=16, seed=31, refresh_multiple=2.0):
    config = fast_config(
        probe_interval=4.0,
        level_check_interval=1e6,
        refresh_multiple=refresh_multiple,
        expiry_multiple=refresh_multiple * 1.5,
    )
    net = PeerWindowNetwork(config=config, master_seed=seed)
    keys = net.seed_nodes([1e9] * n)
    # Short refresh clocks so healing happens within test time: prime the
    # lifetime estimators with small observed lifetimes.
    for node in net.live_nodes():
        node.estimator.observe(0, 30.0)
        for _ in range(20):
            node.estimator.observe(0, 30.0)
    net.run(until=10.0)
    return net, keys


class TestPartitionMechanics:
    def test_cross_partition_messages_dropped(self):
        net, keys = partition_network(4)
        side_a, side_b = keys[:2], keys[2:]
        net.transport.partition(side_a, side_b)
        before = net.transport.dropped_partition
        net.transport.send(Message(keys[0], keys[3], "probe"))
        net.run(until=net.sim.now + 1.0)
        assert net.transport.dropped_partition == before + 1

    def test_same_side_messages_flow(self):
        net, keys = partition_network(4)
        net.transport.partition(keys[:2], keys[2:])
        got = []
        endpoint = net.transport.endpoint(keys[1])
        original = endpoint.handler
        endpoint.handler = lambda m: (got.append(m.kind), original(m))
        net.transport.send(Message(keys[0], keys[1], "probe"))
        net.run(until=net.sim.now + 1.0)
        assert "probe" in got

    def test_in_flight_messages_cut(self):
        net, keys = partition_network(4)
        net.transport.send(Message(keys[0], keys[3], "probe"))
        net.transport.partition(keys[:2], keys[2:])  # before delivery
        before = net.transport.dropped_partition
        net.run(until=net.sim.now + 1.0)
        assert net.transport.dropped_partition == before + 1

    def test_heal_restores_traffic(self):
        net, keys = partition_network(4)
        net.transport.partition(keys[:2], keys[2:])
        net.transport.heal()
        assert not net.transport.partitioned
        before = net.transport.delivered
        net.transport.send(Message(keys[0], keys[3], "probe"))
        net.run(until=net.sim.now + 1.0)
        assert net.transport.delivered > before


class TestPartitionAndHeal:
    def test_sides_declare_each_other_dead(self):
        net, keys = partition_network()
        side_a, side_b = keys[:8], keys[8:]
        net.transport.partition(side_a, side_b)
        net.run(until=net.sim.now + 60.0)
        # Each side's ring probing walked past the unreachable members.
        ids_b = {net.node(k).node_id.value for k in side_b if k in net.nodes}
        for k in side_a:
            node = net.node(k)
            assert not (set(node.peer_list.ids()) & ids_b), (
                f"{k} still holds cross-partition pointers"
            )

    def test_short_partition_rides_out(self):
        """A cut shorter than the detection horizon causes no evictions;
        after healing, the error rate returns to zero without any
        recovery machinery."""
        config = fast_config(
            probe_interval=10.0,
            probe_timeout=2.0,
            # Retries are back-to-back, so the detection horizon is
            # misses x timeout = 6 s from the first probe into the cut.
            probe_misses_to_fail=3,
            multicast_ack_timeout=2.0,
            report_timeout=3.0,
            level_check_interval=1e6,
        )
        net = PeerWindowNetwork(config=config, master_seed=5)
        keys = net.seed_nodes([1e9] * 12)
        net.run(until=10.0)
        net.transport.partition(keys[:6], keys[6:])
        net.run(until=net.sim.now + 3.5)  # inside the 6 s horizon
        net.transport.heal()
        net.run(until=net.sim.now + 120.0)
        assert len(net.live_nodes()) == 12
        assert net.mean_error_rate() == 0.0
        detections = sum(n.stats.failures_detected for n in net.live_nodes())
        assert detections == 0

    def test_long_partition_is_permanent_without_rendezvous(self):
        """After mutual eviction, healing the network layer alone cannot
        restore the lists: no pointer crosses the former cut, so no
        multicast can.  (The honest negative result; recovery needs an
        out-of-band bootstrap, as in every anchor-free membership
        protocol.)"""
        net, keys = partition_network()
        side_a, side_b = keys[:8], keys[8:]
        net.transport.partition(side_a, side_b)
        net.run(until=net.sim.now + 60.0)
        net.transport.heal()
        net.run(until=net.sim.now + 300.0)
        ids_b = {net.node(k).node_id.value for k in side_b if k in net.nodes}
        for k in side_a:
            if k in net.nodes:
                assert not (set(net.node(k).peer_list.ids()) & ids_b)

    def test_new_join_bridges_only_its_own_view(self):
        """A node joining after the heal (via a side-B bootstrap) sees
        side B's membership — demonstrating that recovery is a rendezvous
        problem, not a protocol defect: whichever side the newcomer
        bootstraps from defines its world."""
        net, keys = partition_network()
        side_a, side_b = keys[:8], keys[8:]
        net.transport.partition(side_a, side_b)
        net.run(until=net.sim.now + 60.0)
        net.transport.heal()
        new = net.add_node(1e9, bootstrap=side_b[0])
        net.run(until=net.sim.now + 30.0)
        node = net.node(new)
        ids_b = {net.node(k).node_id.value for k in side_b if k in net.nodes}
        joined_view = set(node.peer_list.ids()) - {node.node_id.value}
        assert joined_view <= ids_b
        assert len(joined_view) == len(ids_b)


class TestPartitionRacesInFlightMulticast:
    def test_join_multicast_survives_mid_tree_cut(self):
        """A short partition dropped onto a JOIN multicast *while its
        tree is still forwarding* must not black-hole any subtree: the
        unacked cross-cut edges are retried after the heal (and redirect
        repairs any child declared unreachable), so every audience
        member still learns the joiner."""
        config = fast_config(
            probe_interval=10.0,
            probe_misses_to_fail=2,  # detection horizon 2 s > the cut
            multicast_attempts=4,
            level_check_interval=1e6,
            # Slow tree hops so the cut reliably lands mid-multicast.
            multicast_processing_delay=0.3,
        )
        net = PeerWindowNetwork(config=config, master_seed=17)
        keys = net.seed_nodes([1e9] * 24)
        net.run(until=10.0)

        done = []
        new_key = net.add_node(1e9, bootstrap=keys[0], on_done=done.append)
        start = net.sim.now
        side_a = keys[:12] + [new_key]
        side_b = keys[12:]
        # Handshake takes a few tenths; the tree then forwards for
        # ~depth * 0.3 s.  Cut at +0.8 for 1.2 s: inside the multicast,
        # inside the detection horizon.
        net.sim.schedule_at(start + 0.8, lambda: net.transport.partition(side_a, side_b))
        net.sim.schedule_at(start + 2.0, net.transport.heal)
        before_drop = net.transport.dropped_partition
        net.run(until=start + 2.0)
        cut_mcasts = net.transport.dropped_partition - before_drop
        assert cut_mcasts > 0, "the cut never raced any traffic - retune the window"

        net.run(until=start + 30.0)
        assert done == [True]
        joiner = net.node(new_key)
        assert joiner.alive
        jid = joiner.node_id.value
        missing = [n.address for n in net.live_nodes()
                   if jid not in set(n.peer_list.ids())]
        assert missing == [], f"black-holed subtree: {missing} never saw the JOIN"
        assert net.mean_error_rate() == 0.0
