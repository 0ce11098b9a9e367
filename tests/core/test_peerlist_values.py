"""A peer list holds rows, not ``Pointer`` objects.

What goes in is copied, what comes out is fresh, so nothing a caller
holds is a reference into a list — the property that makes the PR 2
shared-``Pointer`` channel and the PR 4 uncopied store impossible rather
than guarded against.  Counted, not timed: after seeding, the only
``Pointer`` objects alive are the top-node and cross-part entries.
"""

import pytest

from repro.core.errors import NodeIdError
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from tests.conftest import mutable_parts, seeded_ring
from tests.test_costs import check

BITS = 8


def ptr(value, level=1, **fields):
    return Pointer(NodeId(value, BITS), f"addr-{value}", level, **fields)


def ring_list():
    pl = PeerList(NodeId(0b1000_0000, BITS), 1)
    for value in (0b1000_0000, 0b1001_0000, 0b1100_0000):
        pl.add(ptr(value, last_refresh=3.0, last_event_seq=2))
    pl.add(ptr(0b1010_0000, level=4, attached_info="app", seen_join_time=1.0))
    return pl


def scribble(pointer):
    pointer.level = 7
    pointer.address = "elsewhere"
    pointer.attached_info = "scribbled"
    pointer.seen_join_time = 99.0
    pointer.last_refresh = 99.0
    pointer.last_event_seq = 99


class TestNoCallerHoldsARow:
    def test_the_pointer_passed_to_add_is_copied_in(self):
        pl = ring_list()
        given = ptr(0b1011_0000, last_refresh=3.0)
        pl.add(given)
        before = list(pl)
        scribble(given)
        assert list(pl) == before
        assert pl.get(given.node_id) == ptr(0b1011_0000, last_refresh=3.0)

    @pytest.mark.parametrize(
        "read",
        [
            lambda pl: [pl.get(NodeId(0b1010_0000, BITS))],
            lambda pl: list(pl),
            lambda pl: [pl.ring_successor(pl.owner_id)],
            lambda pl: pl.group_members(),
            lambda pl: pl.multicast_candidates(pl.owner_id, NodeId(0b1000_0001, BITS), 1),
            lambda pl: [
                p for found in pl.audience_by_bit(
                    pl.owner_id, NodeId(0b1000_0001, BITS)
                ).values() for p in found
            ],
            lambda pl: [p for _, p in pl.strongest_by_bit(
                pl.owner_id, NodeId(0b1000_0001, BITS), 0)],
            lambda pl: pl.sharing_prefix(NodeId(0b1010_0000, BITS), 1),
        ],
        ids=["get", "iteration", "ring_successor", "group_members",
             "multicast_candidates", "audience_by_bit", "strongest_by_bit",
             "sharing_prefix"],
    )
    def test_what_a_read_returns_is_fresh(self, read):
        pl = ring_list()
        before = list(pl)
        handed_out = read(pl)
        assert handed_out and None not in handed_out
        for pointer in handed_out:
            scribble(pointer)
        assert list(pl) == before
        assert all(a is not b for a, b in zip(read(pl), read(pl)))

    def test_removed_and_evicted_pointers_are_the_row_as_it_was(self):
        pl = ring_list()
        assert pl.remove(NodeId(0b1010_0000, BITS)) == ptr(
            0b1010_0000, level=4, attached_info="app", seen_join_time=1.0
        )
        evicted = pl.retarget(2)  # prefix '10'
        assert [p.node_id.value for p in evicted] == [0b1100_0000]
        assert pl.ids() == [0b1000_0000, 0b1001_0000]

    def test_update_is_the_only_way_a_row_changes_and_it_validates(self):
        pl = ring_list()
        target = NodeId(0b1001_0000, BITS)
        assert pl.update(target, level=3, attached_info={"k": 1}, last_event_seq=5)
        assert pl.get(target) == ptr(
            0b1001_0000, level=3, attached_info={"k": 1}, last_refresh=3.0, last_event_seq=5
        )
        assert pl.update(target, attached_info=None)  # back off the side table
        assert pl.get(target).attached_info is None
        for bad_level in (-1, BITS + 1):
            with pytest.raises(NodeIdError):
                pl.update(target, level=bad_level)
        with pytest.raises(TypeError):
            pl.update(target, node_id=NodeId(1, BITS))
        assert pl.get(target).level == 3
        assert not pl.update(NodeId(0b1111_1111, BITS), level=1)  # absent: no write
        assert NodeId(0b1111_1111, BITS) not in pl

    def test_a_pointer_mutated_out_of_range_is_refused_at_the_write(self):
        pl = ring_list()
        bad = ptr(0b1011_0000)
        bad.level = BITS + 1  # past __post_init__
        with pytest.raises(NodeIdError):
            pl.add(bad)
        assert NodeId(0b1011_0000, BITS) not in pl


def test_two_nodes_seeded_from_one_population_share_only_the_address_table():
    net = seeded_ring(64)
    nodes = net.live_nodes()
    by_eigenstring = {}
    for node in nodes:
        by_eigenstring.setdefault(node.eigenstring, []).append(node)
    a, b = max(by_eigenstring.values(), key=len)[:2]  # identical lists (property 1)
    assert list(a.peer_list) == list(b.peer_list) and len(a.peer_list) > 1
    shared = mutable_parts(a.peer_list).keys() & mutable_parts(b.peer_list).keys()
    # The network's append-only id -> address table, and nothing else ...
    assert shared == {id(a.ctx.addresses)} and a.ctx.addresses is net._addresses
    # ... so a write to one list, its address included, is invisible to
    # the other.
    before = list(b.peer_list)
    assert a.peer_list.update(
        b.node_id, address="elsewhere", level=0, last_refresh=50.0, attached_info="x"
    )
    a.peer_list.remove(a.node_id)
    assert list(b.peer_list) == before
    assert a.peer_list.get(b.node_id).address == "elsewhere"


@pytest.mark.costs
def test_seeding_a_ring_builds_no_pointer():
    check("rounds", 2000, "pointers")
