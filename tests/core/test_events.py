"""Event application tests (§2 state changes, §4.6 ordering guards)."""

import pytest

from repro.core.events import EventKind, EventRecord, apply_event, obituary_seq
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList


def nid(s):
    return NodeId.from_bitstring(s)


def event(kind, subject, level=0, seq=0, t=0.0, info=None):
    return EventRecord(
        kind=kind,
        subject_id=nid(subject),
        subject_level=level,
        subject_address=subject,
        seq=seq,
        origin_time=t,
        attached_info=info,
    )


@pytest.fixture
def pl():
    return PeerList(nid("0000"), 0)


class TestJoin:
    def test_join_adds_pointer(self, pl):
        assert apply_event(pl, event(EventKind.JOIN, "1010", level=1), now=5.0)
        p = pl.get(nid("1010"))
        assert p.level == 1
        assert p.seen_join_time == 5.0
        assert p.last_refresh == 5.0

    def test_join_outside_prefix_ignored(self):
        pl = PeerList(nid("0000"), 2)
        assert not apply_event(pl, event(EventKind.JOIN, "1010"), now=0.0)
        assert len(pl) == 0

    def test_own_event_ignored(self, pl):
        assert not apply_event(
            pl, event(EventKind.JOIN, "0000"), now=0.0, owner_id=nid("0000")
        )


class TestLeave:
    def test_leave_removes(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", seq=0), now=0.0)
        assert apply_event(pl, event(EventKind.LEAVE, "1010", seq=1), now=1.0)
        assert nid("1010") not in pl

    def test_leave_of_unknown_is_noop(self, pl):
        assert not apply_event(pl, event(EventKind.LEAVE, "1010"), now=0.0)


class TestOrdering:
    def test_stale_event_ignored(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", level=2, seq=5), now=0.0)
        assert not apply_event(
            pl, event(EventKind.LEVEL_CHANGE, "1010", level=1, seq=3), now=1.0
        )
        assert pl.get(nid("1010")).level == 2

    def test_equal_seq_ignored(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", seq=5), now=0.0)
        assert not apply_event(pl, event(EventKind.LEAVE, "1010", seq=5), now=1.0)
        assert nid("1010") in pl

    def test_newer_seq_applies(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", level=1, seq=0), now=0.0)
        assert apply_event(
            pl, event(EventKind.LEVEL_CHANGE, "1010", level=3, seq=1), now=1.0
        )
        assert pl.get(nid("1010")).level == 3


class TestLevelChangeAndInfo:
    def test_level_change_creates_if_absent(self, pl):
        """A level change about a node we missed the join of: upsert."""
        assert apply_event(
            pl, event(EventKind.LEVEL_CHANGE, "1010", level=2, seq=1), now=3.0
        )
        p = pl.get(nid("1010"))
        assert p.level == 2
        assert p.seen_join_time is None  # join was never observed

    def test_info_change_updates_attached(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", seq=0, info={"f": 1}), now=0.0)
        apply_event(
            pl, event(EventKind.INFO_CHANGE, "1010", seq=1, info={"f": 9}), now=1.0
        )
        assert pl.get(nid("1010")).attached_info == {"f": 9}


class TestRefresh:
    def test_refresh_bumps_last_refresh(self, pl):
        apply_event(pl, event(EventKind.JOIN, "1010", seq=0), now=0.0)
        apply_event(pl, event(EventKind.REFRESH, "1010", seq=1), now=100.0)
        assert pl.get(nid("1010")).last_refresh == 100.0

    def test_refresh_revives_absent_pointer(self, pl):
        """§4.6: an absent pointer is automatically revised when any event
        about the node arrives — including a refresh."""
        assert apply_event(pl, event(EventKind.REFRESH, "1010", level=1, seq=4), now=9.0)
        assert nid("1010") in pl


class TestValidation:
    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            event(EventKind.JOIN, "1010", seq=-1)

    def test_seq_past_the_32_bit_bound_rejected_by_name(self):
        """A row's seq column is 32 bits; a larger seq is refused where
        the event is built, not deep inside a peer-list write."""
        event(EventKind.JOIN, "1010", seq=2**31 - 1)
        for seq in (2**31, 2**63):
            with pytest.raises(ValueError, match="event seq"):
                event(EventKind.JOIN, "1010", seq=seq)

    def test_obituary_seq_outruns_the_pointer_and_saturates_at_the_bound(self):
        assert obituary_seq(-1) == 0 and obituary_seq(41) == 42
        assert obituary_seq(2**31 - 1) == 2**31 - 1
        event(EventKind.LEAVE, "1010", seq=obituary_seq(2**31 - 1))

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(
                kind=EventKind.JOIN,
                subject_id=nid("1010"),
                subject_level=9,
                subject_address="x",
                seq=0,
                origin_time=0.0,
            )
