"""The one-pass forward, ring successor and seeding against the
definitions they replaced.

``MulticastForwarder.forward`` buckets the audience by first-differing
bit in one look at the peer list; the reference here is the per-bit loop
it replaced, written straight from the §4.2 sentence (*"the same first s
bits and a different (s+1)-th bit ... the highest level"*) on the
``NodeId`` predicates.  ``PeerList.ring_successor`` and ``seed_network``
got the same integer arithmetic and are held to their old list-building
definitions the same way.  The cost guard counts ``Pointer`` objects
built, not seconds: a forward reads two columns and builds one pointer
per target it sends to, whatever the id width.
"""

from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import peerlist
from repro.core.config import ProtocolConfig
from repro.core.errors import NodeIdError
from repro.core.events import EventKind, EventRecord
from repro.core.multicast import MulticastForwarder, plan_tree
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.core.protocol import PeerWindowNetwork

WIDTHS = (8, 16, 128)


def event_about(subject: NodeId) -> EventRecord:
    return EventRecord(
        kind=EventKind.JOIN,
        subject_id=subject,
        subject_level=0,
        subject_address=subject.value,
        seq=0,
        origin_time=0.0,
    )


class Sends:
    """A ``send_fn`` that records ``(target id value, next_bit)`` and acks."""

    def __init__(self):
        self.sent: List[Tuple[int, int]] = []

    def __call__(self, target, event, next_bit, on_result, trace=None):
        self.sent.append((target.node_id.value, next_bit))
        on_result(True)


def peer_list_of(local: NodeId, members: List[Tuple[int, int]]) -> PeerList:
    pl = PeerList(local, 0)
    for value, level in members:
        pl.add(Pointer(NodeId(value, local.bits), value, level))
    return pl


def forwarder_over(pl: PeerList):
    sends = Sends()
    config = ProtocolConfig(id_bits=pl.owner_id.bits)
    return MulticastForwarder(config, pl.owner_id, pl, sends), sends


# -- the deleted per-bit loop, kept as the reference ---------------------------


def reference_candidates(
    pointers: List[Pointer], local: NodeId, subject: NodeId, bit: int
) -> List[Pointer]:
    return [
        p
        for p in pointers
        if p.node_id.value not in (local.value, subject.value)
        and p.node_id.shares_prefix(local, bit)
        and p.node_id.bit(bit) != local.bit(bit)
        and p.node_id.shares_prefix(subject, p.level)  # in the audience
    ]


def reference_forward(
    pointers: List[Pointer], local: NodeId, subject: NodeId, start_bit: int
) -> List[Tuple[int, int]]:
    sends = []
    for bit in range(start_bit, local.bits):
        candidates = reference_candidates(pointers, local, subject, bit)
        candidates.sort(key=lambda p: (p.level, p.node_id.value))
        sends += [(p.node_id.value, bit + 1) for p in candidates[:1]]
    return sends


@st.composite
def populations(draw, max_size: int = 40):
    """``(bits, local, subject, [(value, level)])`` with ids that share
    prefixes of every length (uniform 128-bit ids would all part ways in
    the first few bits) and levels from 0 to the full width."""
    bits = draw(st.sampled_from(WIDTHS))

    def near(base: int) -> int:
        spread = draw(st.integers(0, bits))
        return base ^ draw(st.integers(0, (1 << spread) - 1))

    local = draw(st.integers(0, (1 << bits) - 1))
    subject = near(local)
    size = draw(st.integers(0, max_size))
    values = {near(draw(st.sampled_from((local, subject)))) for _ in range(size)}
    values |= {v for v in (local, subject) if draw(st.booleans())}
    members = []
    for value in sorted(values):
        shared = bits - (value ^ subject).bit_length()
        in_audience = draw(st.booleans())
        members.append((value, draw(st.integers(0, shared if in_audience else bits))))
    return bits, local, subject, draw(st.permutations(members))


class TestForwardMatchesThePerBitDefinition:
    @settings(max_examples=300, deadline=None)
    @given(populations(), st.data())
    def test_same_targets_same_order_same_next_bit(self, population, data):
        bits, local_value, subject_value, members = population
        local, subject = NodeId(local_value, bits), NodeId(subject_value, bits)
        start_bit = data.draw(st.integers(0, bits))
        pl = peer_list_of(local, members)
        fwd, sends = forwarder_over(pl)
        out_degree = fwd.forward(event_about(subject), start_bit)
        expected = reference_forward(list(pl), local, subject, start_bit)
        assert sends.sent == expected
        assert out_degree == fwd.forwards == len(expected)

    @settings(max_examples=200, deadline=None)
    @given(populations(), st.data())
    def test_single_bit_query_matches_the_definition(self, population, data):
        """``multicast_candidates`` (the redirect path's query) returns
        the reference's candidates for one bit, in id order."""
        bits, local_value, subject_value, members = population
        local, subject = NodeId(local_value, bits), NodeId(subject_value, bits)
        bit = data.draw(st.integers(0, bits - 1))
        pl = peer_list_of(local, members)
        assert pl.multicast_candidates(local, subject, bit) == reference_candidates(
            list(pl), local, subject, bit
        )

    @settings(max_examples=120, deadline=None)
    @given(populations(max_size=30))
    def test_deliveries_reach_what_plan_tree_reaches(self, population):
        """Every member runs a forwarder over its ground-truth peer list;
        the deliveries from the strongest audience member are the
        planner's tree, edge for edge."""
        bits, _, subject_value, listed = population
        subject = NodeId(subject_value, bits)
        members: Dict[int, Tuple[NodeId, int]] = {
            value: (NodeId(value, bits), level) for value, level in listed
        }
        audience = [
            (level, value)
            for value, (nid, level) in members.items()
            if nid.shares_prefix(subject, level)
        ]
        if not audience:
            return
        root_level, root_value = min(audience)
        root = members[root_value][0]

        forwarders = {}
        for value, (nid, level) in members.items():
            pl = PeerList(nid, level)
            for other, other_level in members.values():
                if other.shares_prefix(nid, level):
                    pl.add(Pointer(other, other.value, other_level))
            forwarders[value] = forwarder_over(pl)

        delivered = {root_value}
        edges = []
        frontier = [(root_value, 0)]
        while frontier:
            value, start_bit = frontier.pop()
            fwd, sends = forwarders[value]
            mark = len(sends.sent)
            fwd.forward(event_about(subject), start_bit)
            for target, next_bit in sends.sent[mark:]:
                edges.append((value, target, next_bit))
                if target not in delivered:  # receivers deduplicate (§4.2)
                    delivered.add(target)
                    frontier.append((target, next_bit))

        tree = plan_tree(root, root_level, subject, members)
        assert delivered == {node.node_id.value for node in tree.walk()}
        planned = [
            (node.node_id.value, child.node_id.value, child.start_bit)
            for node in tree.walk()
            for child in node.children
        ]
        assert sorted(edges) == sorted(planned)


class TestForwardKeepsItsChecks:
    def setup_method(self):
        self.local = NodeId.from_bitstring("0000")
        self.pl = peer_list_of(self.local, [(0b1000, 0), (0b0100, 1), (0b0010, 2)])

    def test_start_bit_at_the_id_width_sends_nothing(self):
        fwd, sends = forwarder_over(self.pl)
        assert fwd.forward(event_about(NodeId.from_bitstring("0011")), 4) == 0
        assert sends.sent == []

    def test_subject_of_another_width_is_refused(self):
        fwd, sends = forwarder_over(self.pl)
        with pytest.raises(NodeIdError):
            fwd.forward(event_about(NodeId(3, 8)), 0)
        assert sends.sent == []

    def test_pointer_of_another_width_is_refused(self):
        """At the write, not mid-forward: one width per list is what makes
        the id column comparable."""
        fwd, sends = forwarder_over(self.pl)
        before = list(self.pl)
        with pytest.raises(NodeIdError):
            self.pl.add(Pointer(NodeId(0b10000000, 8), "wide", 0), strict=False)
        with pytest.raises(NodeIdError):
            self.pl.update(NodeId(0b00001000, 8), level=1)
        with pytest.raises(NodeIdError):
            PeerList(NodeId(0, 8), 0).load_sorted(self.pl)
        assert list(self.pl) == before and sends.sent == []
        # ... so the forward that used to trip over the row goes through.
        assert fwd.forward(event_about(NodeId.from_bitstring("0011")), 0) == 3
        assert [value for value, _ in sends.sent] == [0b1000, 0b0100, 0b0010]

    def test_negative_start_bit_is_refused(self):
        fwd, _ = forwarder_over(self.pl)
        with pytest.raises(NodeIdError):
            fwd.forward(event_about(NodeId.from_bitstring("0011")), -1)


# -- cost guard: pointers built per forward, not seconds ------------------------


@pytest.fixture
def pointers_built(monkeypatch):
    """Counts every ``Pointer`` that comes to exist, by either road: the
    validating constructor or a peer list's row materialiser."""
    built = []
    init, from_row = Pointer.__init__, peerlist.pointer_from_row

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_from_row(*fields):
        built.append(1)
        return from_row(*fields)

    monkeypatch.setattr(Pointer, "__init__", counting_init)
    monkeypatch.setattr(peerlist, "pointer_from_row", counting_from_row)
    return built


class TestForwardCostIsOnePass:
    #: (16-bit id, level): prefixes of every length around local = 0x0000
    POPULATION = [(1 << k | k, min(k, 3)) for k in range(16)] + [
        (0x8000 | v, 0) for v in range(16, 56)
    ]

    def _forward(self, bits: int, built: list):
        widen = bits - 16  # the same prefixes at the top of a wider id
        local = NodeId(0, bits)
        pl = peer_list_of(local, [(v << widen, lvl) for v, lvl in self.POPULATION])
        fwd, sends = forwarder_over(pl)
        event = event_about(NodeId(0x0003 << widen, bits))
        del built[:]
        out_degree = fwd.forward(event, 0)
        return len(built), out_degree, [(v >> widen, nxt) for v, nxt in sends.sent]

    def test_one_pass_whatever_the_id_width(self, pointers_built):
        """No pointer per row scanned: at most one per target sent to."""
        narrow_built, narrow_degree, narrow_sends = self._forward(16, pointers_built)
        wide_built, wide_degree, wide_sends = self._forward(128, pointers_built)
        assert narrow_sends == wide_sends and len(narrow_sends) >= 10
        assert narrow_degree == wide_degree == len(narrow_sends)
        assert narrow_degree < len(self.POPULATION) / 2
        assert 0 < narrow_built <= narrow_degree
        assert 0 < wide_built <= wide_degree


# -- ring successor ---------------------------------------------------------------

RING_BITS = 10


def reference_ring_successor(pl: PeerList, of_id: NodeId) -> Optional[Pointer]:
    candidates = [p for p in pl.group_members() if p.node_id.value != of_id.value]
    if not candidates:
        return None
    larger = [p for p in candidates if p.node_id.value > of_id.value]
    return min(larger or candidates, key=lambda p: p.node_id.value)


class TestRingSuccessorMatchesTheGroupDefinition:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << RING_BITS) - 1), st.integers(0, 3)),
            max_size=30,
            unique_by=lambda member: member[0],
        ),
        st.integers(0, 3),
        st.data(),
    )
    def test_same_pointer_or_none(self, members, owner_level, data):
        pl = PeerList(NodeId(0, RING_BITS), 0)
        for value, level in members:
            pl.add(Pointer(NodeId(value, RING_BITS), value, level))
        pl.owner_level = owner_level  # the group is the pointers at this level
        listed = [value for value, _ in members]
        of_value = data.draw(
            st.one_of(st.integers(0, (1 << RING_BITS) - 1), st.sampled_from(listed))
            if listed
            else st.integers(0, (1 << RING_BITS) - 1)
        )
        of_id = NodeId(of_value, RING_BITS)
        assert pl.ring_successor(of_id) == reference_ring_successor(pl, of_id)

    def test_one_member_group_has_no_successor(self):
        pl = peer_list_of(NodeId(5, RING_BITS), [(5, 0), (9, 1), (700, 2)])
        assert pl.ring_successor(NodeId(5, RING_BITS)) is None
        assert pl.ring_successor(NodeId(6, RING_BITS)).node_id.value == 5

    def test_wraps_past_the_largest_id(self):
        pl = peer_list_of(NodeId(900, RING_BITS), [(3, 0), (40, 1), (900, 0), (1000, 2)])
        assert pl.ring_successor(NodeId(900, RING_BITS)).node_id.value == 3


# -- seeding ------------------------------------------------------------------------


def test_seed_network_builds_the_peer_lists_of_the_n_squared_definition():
    """Same ids as comparing every pair of nodes, held in id order, each
    entry the seeded node's own pointer."""
    config = ProtocolConfig(id_bits=16, level_check_interval=1e6)
    net = PeerWindowNetwork(config=config, master_seed=3)
    levels = (0, 1, 2, 3, 3, 5, 16)
    keys = net.seed_nodes(
        [{"threshold_bps": 1e9, "level": levels[i % len(levels)]} for i in range(300)]
    )
    nodes = [net.node(key) for key in keys]
    assert {nd.level for nd in nodes} == set(levels)
    for nd in nodes:
        expected = sorted(
            (other.node_id.value, other.self_pointer())
            for other in nodes
            if other.node_id.shares_prefix(nd.node_id, nd.level)
        )
        assert nd.peer_list.ids() == [value for value, _ in expected]
        assert list(nd.peer_list) == [pointer for _, pointer in expected]
