"""The paper's worked example, live: figure 1's 10-node PeerWindow.

We build the figure's configuration as a running network (4-bit ids,
levels 0-2, ids chosen to match the text's statements: eigenstring "11"
empty; node E's audience = {A, B, D, E, H}) and verify, on live state:

* §2 peer-list properties 1-5;
* figure 2's audience composition for node E;
* figure 3's ring-successor probing inside one eigenstring group;
* the §2 multicast feasibility claim (an event reported by any node
  reaches exactly the audience).
"""

import pytest

from repro.core.audience import audience_set
from repro.core.nodeid import NodeId
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config

#: Figure-1-consistent assignment (see tests/core/test_audience.py).
FIGURE1 = {
    "A": ("0100", 0),
    "B": ("1100", 0),
    "C": ("0010", 1),
    "D": ("1110", 1),
    "E": ("1011", 1),
    "F": ("0001", 2),
    "G": ("0111", 2),
    "H": ("1001", 2),
    "I": ("0110", 2),
    "J": ("0101", 2),
}


@pytest.fixture(scope="module")
def figure1_net():
    config = fast_config(
        id_bits=4,
        level_check_interval=1e6,  # freeze levels: this is a static example
    )
    net = PeerWindowNetwork(config=config, master_seed=1)
    specs = [
        {
            "threshold_bps": 1e6,
            "node_id": NodeId.from_bitstring(bits),
            "level": level,
        }
        for bits, level in FIGURE1.values()
    ]
    keys = net.seed_nodes(specs)
    net.run(until=10.0)
    by_name = {name: net.node(k) for name, k in zip(FIGURE1, keys)}
    return net, by_name


class TestPeerListProperties:
    def test_property1_same_eigenstring_same_list(self, figure1_net):
        """Nodes D and E (eigenstring '1') have the same peer list."""
        _, nodes = figure1_net
        assert nodes["D"].eigenstring == nodes["E"].eigenstring == "1"
        assert nodes["D"].peer_list.ids() == nodes["E"].peer_list.ids()

    def test_property2_stronger_covers_weaker(self, figure1_net):
        """E's eigenstring '1' is a prefix of H's '10': E's list covers
        H's completely."""
        _, nodes = figure1_net
        assert set(nodes["H"].peer_list.ids()) <= set(nodes["E"].peer_list.ids())

    def test_property3_top_node_covers_system(self, figure1_net):
        net, nodes = figure1_net
        assert len(nodes["A"].peer_list) == 10
        assert nodes["A"].is_top

    def test_property4_same_level_different_eigenstring_disjoint(self, figure1_net):
        """C ('0') and E ('1') at level 1 have entirely different lists."""
        _, nodes = figure1_net
        assert not (set(nodes["C"].peer_list.ids()) & set(nodes["E"].peer_list.ids()))

    def test_property5_group_fully_connected(self, figure1_net):
        """All nodes with eigenstring '1' (D, E) point at each other."""
        _, nodes = figure1_net
        assert nodes["E"].node_id in nodes["D"].peer_list
        assert nodes["D"].node_id in nodes["E"].peer_list

    def test_figure1_list_sizes(self, figure1_net):
        """Level-0 nodes see all 10; '0'-group sees 6; '1'-group sees 4."""
        _, nodes = figure1_net
        assert len(nodes["B"].peer_list) == 10
        assert len(nodes["C"].peer_list) == 6  # ids starting '0': A,C,F,G,I,J
        assert len(nodes["E"].peer_list) == 4  # ids starting '1': B,D,E,H


class TestFigure2Audience:
    def test_audience_of_e(self, figure1_net):
        """§2: E's audience = A, B (level 0), D, E ('1'), H ('10')."""
        net, nodes = figure1_net
        members = [(n.node_id, n.level) for n in net.live_nodes()]
        audience = audience_set(nodes["E"].node_id, members)
        expected = {nodes[x].node_id.value for x in "ABDEH"}
        assert {nid.value for nid, _ in audience} == expected

    def test_info_change_reaches_exactly_the_audience(self, figure1_net):
        net, nodes = figure1_net
        nodes["E"].update_attached_info({"tag": "changed"})
        net.run(until=net.sim.now + 10.0)
        for name, node in nodes.items():
            p = node.peer_list.get(nodes["E"].node_id)
            if name in set("ABDEH") - {"E"}:
                assert p is not None and p.attached_info == {"tag": "changed"}
            elif name != "E":
                assert p is None  # not in the audience: never held a pointer


class TestFigure3Ring:
    def test_ring_successors_in_zero_group(self, figure1_net):
        """The '0'-prefix members of C's level-1... C is alone at level 1
        with eigenstring '0', so its group ring is a singleton; the
        level-2 '01' group {G(0111), I(0110), J(0101)} forms a real ring.
        """
        _, nodes = figure1_net
        succ_j = nodes["J"].peer_list.ring_successor(nodes["J"].node_id)
        assert succ_j.node_id == nodes["I"].node_id  # 0101 -> 0110
        succ_i = nodes["I"].peer_list.ring_successor(nodes["I"].node_id)
        assert succ_i.node_id == nodes["G"].node_id  # 0110 -> 0111
        succ_g = nodes["G"].peer_list.ring_successor(nodes["G"].node_id)
        assert succ_g.node_id == nodes["J"].node_id  # wrap: 0111 -> 0101

    def test_failure_detected_in_group(self, figure1_net):
        net, nodes = figure1_net
        victim = nodes["I"]
        victim_id = victim.node_id
        victim.crash()
        net.run(until=net.sim.now + 40.0)
        for name in "ACGJ":  # the '0' side that held a pointer to I
            assert victim_id not in nodes[name].peer_list
        assert net.mean_error_rate() == 0.0
