"""Wire-size accounting: the bandwidth meters must see exactly the bits
the protocol specification says each interaction costs."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork


@pytest.fixture()
def quiet_net():
    """A network with all periodic traffic pushed beyond the horizon, so
    individual interactions can be metered in isolation."""
    config = ProtocolConfig(
        id_bits=16,
        probe_interval=1e6,
        probe_timeout=1.0,
        multicast_ack_timeout=1.0,
        report_timeout=2.0,
        level_check_interval=1e6,
        multicast_processing_delay=0.1,
    )
    net = PeerWindowNetwork(config=config, master_seed=21)
    keys = net.seed_nodes([1e9] * 10)
    net.run(until=1.0)
    return net, keys


class TestWireAccounting:
    def test_event_multicast_bits(self, quiet_net):
        """One info-change: every other node receives exactly one
        1000-bit event and sends one 100-bit ack."""
        net, keys = quiet_net
        before = {
            k: (net.node(k).endpoint.bw_in.total_bits,
                net.node(k).endpoint.bw_out.total_bits)
            for k in keys
        }
        origin = net.node(keys[0])
        origin.update_attached_info({"v": 1})
        net.run(until=net.sim.now + 30.0)
        config = net.config
        for k in keys[1:]:
            node = net.node(k)
            d_in = node.endpoint.bw_in.total_bits - before[k][0]
            # Received: the event itself, plus possibly forwarded acks.
            assert d_in >= config.event_message_bits
            # Every received event was acked.
            d_out = node.endpoint.bw_out.total_bits - before[k][1]
            assert d_out >= config.ack_bits

    def test_total_mcast_messages_equals_audience(self, quiet_net):
        """With r=1 and no failures, the multicast sends exactly
        |audience|-1 event messages (each member receives once)."""
        net, keys = quiet_net
        sent_before = net.transport.by_kind.get("mcast", 0)
        net.node(keys[3]).update_attached_info({"v": 2})
        net.run(until=net.sim.now + 30.0)
        sent_after = net.transport.by_kind.get("mcast", 0)
        assert sent_after - sent_before == len(keys) - 1

    def test_download_reply_billed_per_pointer(self, quiet_net):
        """A join download costs n_pointers x pointer_bits on the wire."""
        net, keys = quiet_net
        new = net.add_node(1e9, bootstrap=keys[0])
        net.run(until=net.sim.now + 10.0)
        node = net.node(new)
        # The joiner downloaded ~10 pointers + top list at 500 bits each;
        # its inbound total must reflect that order of magnitude.
        total_in = node.endpoint.bw_in.total_bits
        config = net.config
        min_download = 10 * config.pointer_bits
        assert total_in >= min_download

    def test_probe_roundtrip_bits(self):
        """One probe costs heartbeat_bits out and ack_bits back."""
        config = ProtocolConfig(
            id_bits=16,
            probe_interval=10.0,
            probe_timeout=1.0,
            level_check_interval=1e6,
            multicast_processing_delay=0.1,
        )
        net = PeerWindowNetwork(config=config, master_seed=3)
        keys = net.seed_nodes([1e9] * 2)
        net.run(until=11.0)  # exactly one probe round each
        for k in keys:
            node = net.node(k)
            assert node.stats.probes_sent == 1
        a = net.node(keys[0]).endpoint
        # a sent one probe (500) and acked one probe (100).
        assert a.bw_out.total_bits == config.heartbeat_bits + config.ack_bits
        assert a.bw_in.total_bits == config.heartbeat_bits + config.ack_bits

    def test_lifetime_rate_is_total_over_elapsed(self, quiet_net):
        """The cumulative meter's rate is its total over the node's
        lifetime (seeded at t = 0), whatever the traffic's timing."""
        net, keys = quiet_net
        net.node(keys[0]).update_attached_info({"v": 3})
        net.run(until=net.sim.now + 30.0)
        now = net.sim.now
        for k in keys:
            bw_in = net.node(k).endpoint.bw_in
            assert bw_in.total_bits > 0
            assert bw_in.lifetime_rate(now) == bw_in.total_bits / now
