"""A four-part split system (§4.4 beyond two parts).

The paper's general statement: *"PeerWindow is made up of several parts
that are independent to one another"* — the part structure is a prefix
partition, not a binary split.  Here no node affords level < 2, giving
four parts '00', '01', '10', '11'.
"""

import pytest

from repro.core.nodeid import NodeId
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config


@pytest.fixture(scope="module")
def four_part_net():
    config = fast_config(id_bits=12, level_check_interval=1e6)
    net = PeerWindowNetwork(config=config, master_seed=8)
    rng = net.streams.get("ids")
    specs = []
    used = set()
    for prefix in range(4):
        count = 0
        while count < 6:
            value = (prefix << 10) | int(rng.integers(0, 1 << 10))
            if value in used:
                continue
            used.add(value)
            specs.append(
                {"threshold_bps": 1e6, "node_id": NodeId(value, 12), "level": 2}
            )
            count += 1
    keys = net.seed_nodes(specs)
    net.run(until=15.0)
    return net, keys


class TestFourParts:
    def test_part_structure(self, four_part_net):
        net, keys = four_part_net
        parts = net.parts()
        assert set(parts) == {"00", "01", "10", "11"}
        assert all(count == 6 for count in parts.values())

    def test_mutual_independence(self, four_part_net):
        net, keys = four_part_net
        for node in net.live_nodes():
            own_prefix = node.node_id.prefix_bits(2)
            for p in node.peer_list:
                assert p.node_id.prefix_bits(2) == own_prefix

    def test_cross_part_lists_cover_all_other_parts(self, four_part_net):
        """§4.4: a top node's top-node list holds *t pointers for each
        (other) part*."""
        net, keys = four_part_net
        for node in net.live_nodes():
            own_prefix = node.node_id.prefix_bits(2)
            others = {"00", "01", "10", "11"} - {own_prefix}
            assert set(node.cross_parts.parts()) == others
            for part in others:
                assert len(node.cross_parts.for_part(part)) > 0

    def test_cross_part_join_lands_in_right_part(self, four_part_net):
        net, keys = four_part_net
        # Bootstrap from part '11', joiner belongs in part '00'.
        bootstrap = next(
            k for k in keys if net.node(k).node_id.prefix_bits(2) == "11"
        )
        joiner_id = NodeId(0b001010011001, 12)
        outcome = {}
        new = net.add_node(
            1e6, bootstrap=bootstrap, node_id=joiner_id,
            on_done=lambda ok: outcome.setdefault("ok", ok),
        )
        net.run(until=net.sim.now + 40.0)
        assert outcome.get("ok") is True
        node = net.node(new)
        assert node.eigenstring == "00"
        assert all(p.node_id.prefix_bits(2) == "00" for p in node.peer_list)

    def test_each_part_detects_own_failures(self, four_part_net):
        net, keys = four_part_net
        victims = []
        for prefix in ("00", "10"):
            victim = next(
                k for k in keys
                if k in net.nodes and net.node(k).node_id.prefix_bits(2) == prefix
            )
            victims.append(net.node(victim).node_id)
            net.crash(victim)
        net.run(until=net.sim.now + 60.0)
        for node in net.live_nodes():
            for vid in victims:
                assert vid not in node.peer_list

    def test_stats_summary_shape(self, four_part_net):
        net, keys = four_part_net
        summary = net.stats_summary()
        assert summary["live_nodes"] >= 20
        assert summary["probes_sent"] > 0
        assert summary["transport_sent"] > 0
        assert 0.0 <= summary["mean_error_rate"] <= 1.0
