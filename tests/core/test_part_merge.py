"""Part merging (§4.4 + DESIGN.md §8): a top node raising above its part.

The paper specifies splitting but leaves merging informal.  Our
completion: the raising top downloads the sibling part's membership from
a cross-part top and bridge-subscribes to its event stream.  These tests
drive the whole path.
"""

from repro.analysis.detsan import held_objects
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.core.protocol import PeerWindowNetwork
from repro.net.message import Message
from tests.conftest import fast_config


def build_two_parts(per_part=8, seed=6, level_check=1e6):
    config = fast_config(id_bits=12, level_check_interval=level_check)
    net = PeerWindowNetwork(config=config, master_seed=seed)
    rng = net.streams.get("ids")
    specs = []
    used = set()
    for part_bit in (0, 1):
        while sum(1 for s in specs if s["node_id"].bit(0) == part_bit) < per_part:
            value = (part_bit << 11) | int(rng.integers(0, 1 << 11))
            if value in used:
                continue
            used.add(value)
            specs.append(
                {"threshold_bps": 1e6, "node_id": NodeId(value, 12), "level": 1}
            )
    keys = net.seed_nodes(specs)
    net.run(until=15.0)
    return net, keys


class TestPartMerge:
    def _merge_one(self, net, keys):
        """Force one part-0 top to raise to level 0."""
        merger = next(
            net.node(k) for k in keys if net.node(k).node_id.bit(0) == 0
        )
        merger._initiate_raise(0)
        net.run(until=net.sim.now + 20.0)
        return merger

    def test_merger_reaches_level_zero_with_full_list(self):
        net, keys = build_two_parts()
        merger = self._merge_one(net, keys)
        assert merger.level == 0
        assert merger.is_top
        # Its peer list now spans BOTH parts.
        assert len(merger.peer_list) == len(net.live_nodes())
        bits_seen = {p.node_id.bit(0) for p in merger.peer_list}
        assert bits_seen == {0, 1}

    def test_merger_bridge_subscribed_at_sibling_top(self):
        net, keys = build_two_parts()
        merger = self._merge_one(net, keys)
        subscribed = [
            n for n in net.live_nodes()
            if merger.node_id in [p.node_id for p in n.bridge_subscribers]
        ]
        assert subscribed
        assert all(n.node_id.bit(0) == 1 for n in subscribed)

    def test_sibling_part_events_reach_merger(self):
        """A leave in part 1 must update the merger's (merged) list via
        the bridge."""
        net, keys = build_two_parts()
        merger = self._merge_one(net, keys)
        victim_key = next(
            k for k in keys
            if k in net.nodes and net.node(k).node_id.bit(0) == 1
        )
        # The subscription propagated across the sibling top group, so any
        # sibling top's own leave is bridged too.
        subscribers = net.node(victim_key).bridge_subscribers
        assert merger.node_id in [p.node_id for p in subscribers]
        victim_id = net.node(victim_key).node_id
        assert victim_id in merger.peer_list
        net.leave(victim_key)
        net.run(until=net.sim.now + 30.0)
        assert victim_id not in merger.peer_list

    def test_own_part_unaffected_by_merge(self):
        net, keys = build_two_parts()
        merger = self._merge_one(net, keys)
        # Part-0 members still hold correct intra-part lists.
        for k in keys:
            if k in net.nodes and net.node(k).node_id.bit(0) == 0:
                node = net.node(k)
                if node is merger:
                    continue
                assert net.node_error_rate(node) == 0.0

    def test_merge_then_lower_splits_again(self):
        """The merger lowering back to 1 re-splits: the sibling entries
        are evicted and land in its cross-part list."""
        net, keys = build_two_parts()
        merger = self._merge_one(net, keys)
        merger._commit_lower()
        net.run(until=net.sim.now + 10.0)
        assert merger.level == 1
        assert all(p.node_id.bit(0) == 0 for p in merger.peer_list)
        sibling_parts = merger.cross_parts.parts()
        assert any(p.startswith("1") for p in sibling_parts)

    def test_bridge_subscribers_are_bounded_rows(self):
        """A top keeps at most ``top_list_size`` subscribers, the freshest,
        as rows: what a subscriber sent is not what the top holds."""
        net, keys = build_two_parts()
        top = next(n for n in net.live_nodes() if n.is_top and n.node_id.bit(0) == 1)
        t = top.config.top_list_size
        assert top.bridge_subscribers == []
        sent = []
        for i in range(2 * t):
            ptr = Pointer(NodeId(i, 12), address=f"sub{i}", level=0, last_refresh=float(i))
            sent.append(ptr)
            top.dissemination.on_bridge_subscribe(
                Message(ptr.address, top.address, "bridge-subscribe", payload=(ptr, False))
            )
        held = top.bridge_subscribers
        assert [p.address for p in held] == [f"sub{i}" for i in range(t, 2 * t)]
        assert held == sent[t:]
        assert not any(p is q for p in held for q in sent)
        assert held_objects(top) == []
