"""Split-PeerWindow tests (§4.4): independent parts, cross-part joins."""


from repro.core.nodeid import NodeId
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config


def split_config():
    return fast_config(
        id_bits=12,
        level_check_interval=1e6,  # freeze the autonomic controller
    )


def build_split_network(per_part=10, seed=5):
    """Force a split system: every node at level 1, ids assigned so half
    start with '0' and half with '1' (no level-0 node exists)."""
    net = PeerWindowNetwork(config=split_config(), master_seed=seed)
    rng = net.streams.get("test-ids")
    specs = []
    for part_bit in (0, 1):
        for _ in range(per_part):
            value = (part_bit << 11) | int(rng.integers(0, 1 << 11))
            while any(
                isinstance(s, dict) and s["node_id"].value == value for s in specs
            ):
                value = (part_bit << 11) | int(rng.integers(0, 1 << 11))
            specs.append(
                {"threshold_bps": 100_000.0, "node_id": NodeId(value, 12), "level": 1}
            )
    keys = net.seed_nodes(specs)
    net.run(until=20.0)
    return net, keys


class TestSplitStructure:
    def test_two_parts_exist(self):
        net, keys = build_split_network()
        parts = net.parts()
        assert set(parts) == {"0", "1"}
        assert parts["0"] == parts["1"] == 10

    def test_parts_are_independent(self):
        """§4.4: a node in one part keeps no pointer to any node of the
        other part."""
        net, keys = build_split_network()
        for node in net.live_nodes():
            for p in node.peer_list:
                assert p.node_id.bit(0) == node.node_id.bit(0)

    def test_all_nodes_are_tops_of_their_part(self):
        net, keys = build_split_network()
        for node in net.live_nodes():
            assert node.is_top  # level 1 == part prefix length

    def test_cross_part_top_lists_seeded(self):
        net, keys = build_split_network()
        for node in net.live_nodes():
            other = "1" if node.eigenstring == "0" else "0"
            assert len(node.cross_parts.for_part(other)) > 0


class TestSplitOperation:
    def test_leave_propagates_within_part_only(self):
        net, keys = build_split_network()
        victim = net.node(keys[0])
        victim_id = victim.node_id
        part_bit = victim_id.bit(0)
        net.leave(keys[0])
        net.run(until=net.sim.now + 30.0)
        for node in net.live_nodes():
            if node.node_id.bit(0) == part_bit:
                assert victim_id not in node.peer_list
            # Other part never had the pointer (independence).

    def test_crash_detected_within_part(self):
        net, keys = build_split_network()
        victim_id = net.node(keys[3]).node_id
        net.crash(keys[3])
        net.run(until=net.sim.now + 60.0)
        for node in net.live_nodes():
            assert victim_id not in node.peer_list

    def test_cross_part_join(self):
        """§4.4: a joiner whose bootstrap is in the other part finds a top
        node of its own part through the bootstrap's cross-part list."""
        net, keys = build_split_network()
        # Pick a bootstrap from part '1' and force the joiner into part '0'.
        bootstrap = next(
            k for k in keys if net.node(k).node_id.bit(0) == 1
        )
        joiner_id = NodeId(0b000110111010, 12)
        outcome = {}
        new = net.add_node(
            100_000.0,
            bootstrap=bootstrap,
            node_id=joiner_id,
            on_done=lambda ok: outcome.setdefault("ok", ok),
        )
        net.run(until=net.sim.now + 40.0)
        assert outcome.get("ok") is True
        node = net.node(new)
        # The joiner ended up in part '0' with part-0 pointers only.
        assert all(p.node_id.bit(0) == 0 for p in node.peer_list)
        assert len(node.peer_list) > 1

    def test_join_announces_within_part(self):
        net, keys = build_split_network()
        bootstrap = next(k for k in keys if net.node(k).node_id.bit(0) == 0)
        joiner_id = NodeId(0b010101010101, 12)
        new = net.add_node(100_000.0, bootstrap=bootstrap, node_id=joiner_id)
        net.run(until=net.sim.now + 40.0)
        informed = [
            node
            for node in net.live_nodes()
            if node.address != new and joiner_id in node.peer_list
        ]
        part0 = [n for n in net.live_nodes() if n.node_id.bit(0) == 0 and n.address != new]
        assert len(informed) == len(part0)
