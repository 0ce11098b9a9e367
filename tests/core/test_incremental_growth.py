"""Build a PeerWindow from nothing, using only the wire protocol.

No seeding: the first node bootstraps itself (§4.3's degenerate case),
every other node joins through the real handshake.  This exercises the
bootstrap path, join-level estimation against a live top node, download
correctness as the system grows, and the multicast keeping earlier
members' lists complete.
"""

import pytest

from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config


@pytest.fixture()
def grown_net():
    config = fast_config(level_check_interval=30.0)
    net = PeerWindowNetwork(config=config, master_seed=77)
    first = net.add_first_node(1e9)
    net.run(until=5.0)
    keys = [first]
    outcomes = []
    for i in range(15):
        bootstrap = keys[i % len(keys)]
        keys.append(
            net.add_node(1e9, bootstrap=bootstrap,
                         on_done=lambda ok: outcomes.append(ok))
        )
        net.run(until=net.sim.now + 10.0)
    return net, keys, outcomes


class TestIncrementalGrowth:
    def test_all_joins_succeed(self, grown_net):
        net, keys, outcomes = grown_net
        assert outcomes == [True] * 15
        assert len(net.live_nodes()) == 16

    def test_every_list_complete(self, grown_net):
        net, keys, _ = grown_net
        net.run(until=net.sim.now + 20.0)
        for node in net.live_nodes():
            assert net.node_error_rate(node) == 0.0
            assert len(node.peer_list) == 16

    def test_first_node_is_top(self, grown_net):
        net, keys, _ = grown_net
        assert net.node(keys[0]).is_top
        assert net.node(keys[0]).level == 0

    def test_all_homogeneous_joiners_level_zero(self, grown_net):
        net, keys, _ = grown_net
        assert {n.level for n in net.live_nodes()} == {0}

    def test_top_lists_populated(self, grown_net):
        net, keys, _ = grown_net
        for node in net.live_nodes():
            if not node.is_top:
                assert len(node.top_list) > 0

    def test_grown_network_survives_founder_death(self, grown_net):
        """The bootstrap node is not special: kill it, the rest converge."""
        net, keys, _ = grown_net
        founder_id = net.node(keys[0]).node_id
        net.crash(keys[0])
        net.run(until=net.sim.now + 60.0)
        assert len(net.live_nodes()) == 15
        for node in net.live_nodes():
            assert founder_id not in node.peer_list
        assert net.mean_error_rate() == 0.0
