"""The harness's ground truth, two bisects per node, against the
definition it replaced: one ``shares_prefix`` call per pair of nodes."""

import numpy as np
import pytest

from repro.core.audience import prefix_range
from repro.core.config import ProtocolConfig
from repro.core.errors import NodeIdError
from repro.core.nodeid import NodeId
from repro.core.protocol import PeerWindowNetwork


def definition_oracle(net, node):
    return {
        other.node_id.value
        for other in net.live_nodes()
        if other.node_id.shares_prefix(node.node_id, node.level)
    }


def definition_error(net, node):
    correct = definition_oracle(net, node)
    actual = set(node.peer_list.ids())
    return (len(actual - correct) + len(correct - actual)) / len(correct)


@pytest.fixture(scope="module")
def disturbed():
    """300 nodes at levels 0..16 of a 16-bit id space, then some nodes
    gone without notice and some lists damaged by hand, so stale and
    absent entries both occur."""
    net = PeerWindowNetwork(
        config=ProtocolConfig(id_bits=16, level_check_interval=1e6), master_seed=5
    )
    levels = (0, 1, 2, 3, 3, 5, 16)
    keys = net.seed_nodes(
        [{"threshold_bps": 1e9, "level": levels[i % len(levels)]} for i in range(300)]
    )
    for key in keys[::17]:
        net.crash(key)
    for node in net.live_nodes()[::9]:
        for value in node.peer_list.ids()[1::4]:
            if value != node.node_id.value:
                node.peer_list.remove(NodeId(value, 16))
    return net


def test_oracle_peer_ids_is_the_shares_prefix_definition(disturbed):
    live_ids = disturbed.live_ids()
    assert live_ids == sorted(n.node_id.value for n in disturbed.live_nodes())
    for node in disturbed.live_nodes():
        expected = definition_oracle(disturbed, node)
        for found in (
            disturbed.oracle_peer_ids(node),
            disturbed.oracle_peer_ids(node, live_ids),
        ):
            assert type(found) is set and found == expected
        assert node.node_id.value in expected


def test_error_rates_are_the_definitions(disturbed):
    rates = [definition_error(disturbed, node) for node in disturbed.live_nodes()]
    assert 0.0 < max(rates)
    for node, rate in zip(disturbed.live_nodes(), rates):
        assert disturbed.node_error_rate(node) == rate
    mean = disturbed.mean_error_rate()
    assert type(mean) is float and mean == float(np.mean(rates))
    assert disturbed.stats_summary()["mean_error_rate"] == mean
    by_level = disturbed.level_reports()
    assert sum(rep.count for rep in by_level.values()) == len(rates)
    assert sorted(r for rep in by_level.values() for r in rep.error_rates) == sorted(rates)


def test_prefix_range_is_the_run_of_ids_under_a_prefix():
    values = sorted({(k * 2654435761) % 256 for k in range(90)})
    for value in (0, 0b1011_0100, 255):
        for length in range(9):
            start, stop = prefix_range(values, value, 8, length)
            expected = [
                v for v in values if NodeId(v, 8).shares_prefix(NodeId(value, 8), length)
            ]
            assert values[start:stop] == expected
    assert prefix_range([], 5, 8, 3) == (0, 0)
    for bad in (-1, 9):
        with pytest.raises(NodeIdError):
            prefix_range(values, 0, 8, bad)
