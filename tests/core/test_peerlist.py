"""PeerList container tests."""

import pytest

from repro.core.errors import MembershipError, NodeIdError
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer


def nid(s):
    return NodeId.from_bitstring(s)


def ptr(s, level=0, addr=None):
    node_id = nid(s)
    return Pointer(node_id=node_id, address=addr or s, level=level)


@pytest.fixture
def owner_list():
    """Owner 1010 at level 2: prefix '10'."""
    return PeerList(nid("1010"), 2)


class TestBasicContainer:
    def test_add_and_get(self, owner_list):
        p = ptr("1001", level=2)
        assert owner_list.add(p)
        assert owner_list.get(nid("1001")) == p
        assert owner_list.get(nid("1001")) is not p  # a value, not the row
        assert nid("1001") in owner_list
        assert len(owner_list) == 1

    def test_add_existing_updates(self, owner_list):
        owner_list.add(ptr("1001", level=2))
        newer = ptr("1001", level=3)
        assert not owner_list.add(newer)  # not new
        assert owner_list.get(nid("1001")).level == 3
        assert len(owner_list) == 1

    def test_strict_prefix_enforcement(self, owner_list):
        with pytest.raises(MembershipError):
            owner_list.add(ptr("0101"))

    def test_non_strict_allows_anything(self, owner_list):
        owner_list.add(ptr("0101"), strict=False)
        assert nid("0101") in owner_list

    def test_remove(self, owner_list):
        owner_list.add(ptr("1001"))
        removed = owner_list.remove(nid("1001"))
        assert removed is not None
        assert nid("1001") not in owner_list
        assert owner_list.remove(nid("1001")) is None

    def test_iteration_sorted_by_id(self, owner_list):
        for s in ("1011", "1000", "1101"):
            owner_list.add(ptr(s), strict=False)
        values = [p.node_id.value for p in owner_list]
        assert values == sorted(values)

    def test_ids_snapshot(self, owner_list):
        owner_list.add(ptr("1001"))
        ids = owner_list.ids()
        ids.append(999)
        assert owner_list.ids() == [0b1001]

    def test_clear(self, owner_list):
        owner_list.add(ptr("1001"))
        owner_list.clear()
        assert len(owner_list) == 0

    def test_sharing_prefix_is_the_shares_prefix_filter(self):
        pl = PeerList(nid("1010"), 0)
        for s in ("0001", "0110", "1000", "1010", "1011", "1111"):
            pl.add(ptr(s))
        for other in ("0000", "1010", "1011", "1110"):
            for length in range(5):
                assert pl.sharing_prefix(nid(other), length) == [
                    p for p in pl if p.node_id.shares_prefix(nid(other), length)
                ]
        for other, length in (("1010", -1), ("1010", 5), ("10", 1)):
            with pytest.raises(NodeIdError):
                pl.sharing_prefix(nid(other), length)


class TestRetarget:
    def test_lowering_evicts_out_of_prefix(self):
        pl = PeerList(nid("1010"), 1)
        pl.add(ptr("1001"))
        pl.add(ptr("1110"))
        evicted = pl.retarget(2)  # prefix now '10'
        assert [p.node_id.bitstring() for p in evicted] == ["1110"]
        assert nid("1001") in pl
        assert pl.owner_level == 2

    def test_raising_keeps_everything(self):
        pl = PeerList(nid("1010"), 2)
        pl.add(ptr("1001"))
        assert pl.retarget(1) == []
        assert len(pl) == 1

    def test_invalid_level(self):
        pl = PeerList(nid("1010"), 2)
        with pytest.raises(MembershipError):
            pl.retarget(5)


class TestRing:
    def _populated(self):
        """Figure 3's five-node '0'-eigenstring ring."""
        pl = PeerList(nid("00010"), 1)
        for s in ("00010", "00101", "01001", "01100", "01111"):
            pl.add(ptr(s, level=1))
        return pl

    def test_successor_is_next_larger(self):
        pl = self._populated()
        succ = pl.ring_successor(nid("00010"))
        assert succ.node_id.bitstring() == "00101"

    def test_successor_wraps(self):
        pl = self._populated()
        succ = pl.ring_successor(nid("01111"))
        assert succ.node_id.bitstring() == "00010"

    def test_successor_skips_other_levels(self):
        pl = self._populated()
        pl.add(ptr("00100", level=3))  # deeper node, not in the ring
        succ = pl.ring_successor(nid("00010"))
        assert succ.node_id.bitstring() == "00101"

    def test_concurrent_failure_redirect(self):
        """Figure 3: when B and C leave, A's successor becomes the next
        live node."""
        pl = self._populated()
        pl.remove(nid("00101"))
        succ = pl.ring_successor(nid("00010"))
        assert succ.node_id.bitstring() == "01001"

    def test_singleton_group_has_no_successor(self):
        pl = PeerList(nid("00010"), 1)
        pl.add(ptr("00010", level=1))
        assert pl.ring_successor(nid("00010")) is None

    def test_group_members_filters_level(self):
        pl = self._populated()
        pl.add(ptr("00111", level=2))
        members = pl.group_members()
        assert all(p.level == 1 for p in members)
        assert len(members) == 5


class TestMulticastCandidates:
    def test_candidates_differ_at_bit(self):
        pl = PeerList(nid("0000"), 0)
        for s in ("0000", "0100", "1000", "1100"):
            pl.add(ptr(s, level=0))
        subject = nid("0011")
        cands = pl.multicast_candidates(nid("0000"), subject, 0)
        # Must share first 0 bits (vacuous) and differ at bit 0.
        assert sorted(p.node_id.bitstring() for p in cands) == ["1000", "1100"]

    def test_candidates_exclude_self_and_subject(self):
        pl = PeerList(nid("0000"), 0)
        for s in ("0000", "1000"):
            pl.add(ptr(s, level=0))
        cands = pl.multicast_candidates(nid("0000"), nid("1000"), 0)
        assert cands == []  # only differing node IS the subject

    def test_candidates_must_be_in_audience(self):
        pl = PeerList(nid("0000"), 0)
        # Level-2 node whose eigenstring '11' is NOT a prefix of subject.
        pl.add(ptr("1100", level=2))
        pl.add(ptr("1000", level=1))  # eigenstring '1' IS a prefix
        subject = nid("1011")
        cands = pl.multicast_candidates(nid("0000"), subject, 0)
        assert [p.node_id.bitstring() for p in cands] == ["1000"]

    def test_strongest_tie_break(self):
        pl = PeerList(nid("0000"), 0)
        a = ptr("1000", level=1)
        b = ptr("1100", level=1)
        c = ptr("1010", level=2)
        assert pl.strongest([b, c, a]) is a  # min level, then min id
        assert pl.strongest([]) is None
