"""The columnar peer list against a model: every operation that writes
a list, driven by hypothesis next to a plain ``dict[int, Pointer]`` whose
entries are mutated in place — the structure and the semantics the
columns replaced — and compared through everything that reads one.

A second list, the twin, reads addresses from the same id -> address
table and writes clashing addresses for the same ids (``1`` / ``True`` /
``"1"``, equal tuples that are different objects): each list must read
back exactly what it last wrote, whichever wrote an id first."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import ProtocolConfig
from repro.core.errors import MembershipError
from repro.core.events import EventKind, EventRecord, apply_event
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.core.refresh import LifetimeEstimator, RefreshManager

BITS = 8
OWNER = NodeId(0b10110100, BITS)
# Ids that share prefixes of every length with the owner, plus strangers.
VALUES = st.one_of(
    st.integers(0, BITS).flatmap(
        lambda spread: st.integers(0, (1 << spread) - 1).map(lambda x: OWNER.value ^ x)
    ),
    st.integers(0, (1 << BITS) - 1),
)
LEVELS = st.integers(0, BITS)
# Addresses that ``==`` cannot tell apart, or only by type.
ADDRESSES = st.sampled_from([1, True, "1", 1.0, 7, "moved", ("t", 1), ("t", True)])
INFOS = st.sampled_from([None, None, "info", ("tuple", 1)])
TIMES = st.sampled_from([0.0, 1.0, 5.0, 40.0, 90.0])
SEQS = st.integers(-1, 6)
POINTERS = st.builds(
    lambda value, address, level, info, joined, refreshed, seq: Pointer(
        NodeId(value, BITS),
        f"addr-{value}" if address is None else address,
        level, info, joined, refreshed, seq,
    ),
    VALUES, st.one_of(st.none(), st.none(), ADDRESSES), LEVELS, INFOS,
    st.one_of(st.none(), TIMES), TIMES, SEQS,
)


def covered(value: int, level: int) -> bool:
    return NodeId(value, BITS).shares_prefix(OWNER, level)


def exactly(got, want) -> bool:
    """The address a list returned is the one written: an int or str
    equal and of the same type, anything else the very object."""
    if type(got) is not type(want):
        return False
    return got == want if type(want) in (int, str) else got is want


def same_addresses(pointers, expected) -> bool:
    return len(pointers) == len(expected) and all(
        exactly(p.address, q.address) for p, q in zip(pointers, expected)
    )


class PeerListVsDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.level = 2
        self.pl = PeerList(OWNER, self.level)
        self.model = {}  # id value -> Pointer, mutated in place
        # A level-0 list on the same address table, and its model.
        self.twin = PeerList(NodeId(0, BITS), 0, self.pl._table)
        self.twin_model = {}
        # Short lifetimes, so a sweep at the TIMES above expires some rows.
        self.refresh = RefreshManager(
            ProtocolConfig(id_bits=BITS), LifetimeEstimator(prior_mean=10.0)
        )

    def _value(self, data) -> int:
        """An id to aim at: usually one the list holds, sometimes not."""
        held = st.sampled_from(sorted(self.model)) if self.model else VALUES
        return data.draw(st.one_of(held, held, VALUES))

    # -- the operations ----------------------------------------------------

    @rule(pointer=POINTERS, strict=st.booleans(), data=st.data())
    def add(self, pointer, strict, data):
        if data.draw(st.booleans()):  # overwrite rather than insert
            pointer.node_id = NodeId(self._value(data), BITS)
        value = pointer.node_id.value
        if strict and not covered(value, self.level):
            with pytest.raises(MembershipError):
                self.pl.add(pointer)
            return
        assert self.pl.add(pointer, strict=strict) == (value not in self.model)
        self.model[value] = pointer.copy()

    @rule(data=st.data())
    def remove(self, data):
        value = self._value(data)
        assert self.pl.remove(NodeId(value, BITS)) == self.model.pop(value, None)

    @rule(data=st.data())
    def update(self, data):
        value = self._value(data)
        fields = data.draw(
            st.fixed_dictionaries(
                {},
                optional={
                    "address": ADDRESSES,
                    "level": LEVELS,
                    "attached_info": INFOS,
                    "seen_join_time": st.one_of(st.none(), TIMES),
                    "last_refresh": TIMES,
                    "last_event_seq": SEQS,
                },
            )
        )
        held = self.model.get(value)
        assert self.pl.update(NodeId(value, BITS), **fields) == (held is not None)
        for name, new in fields.items():
            if held is not None:
                setattr(held, name, new)

    @rule(new_level=LEVELS)
    def retarget(self, new_level):
        evicted = self.pl.retarget(new_level)
        self.level = new_level
        gone = [v for v in sorted(self.model) if not covered(v, new_level)]
        assert evicted == [self.model.pop(v) for v in gone]

    @rule(
        kind=st.sampled_from(list(EventKind)),
        level=LEVELS, seq=st.integers(0, 7), info=INFOS, now=TIMES, data=st.data(),
    )
    def event(self, kind, level, seq, info, now, data):
        value = self._value(data)
        subject = NodeId(value, BITS)
        record = EventRecord(kind, subject, level, f"addr-{value}", seq, now, info)
        changed = apply_event(self.pl, record, now, owner_id=OWNER)
        assert changed == self._model_event(record, now)

    def _model_event(self, event, now):
        """``apply_event``'s documented rules, on objects."""
        value = event.subject_id.value
        if value == OWNER.value or not covered(value, self.level):
            return False
        held = self.model.get(value)
        if held is not None and event.seq <= held.last_event_seq:
            return False
        if event.kind is EventKind.LEAVE:
            return self.model.pop(value, None) is not None
        joined = now if event.kind is EventKind.JOIN else None
        if held is None:
            self.model[value] = Pointer(
                event.subject_id, event.subject_address, event.subject_level,
                event.attached_info, joined, now, event.seq,
            )
            return True
        held.level = event.subject_level
        held.attached_info = event.attached_info
        held.last_refresh = now
        held.last_event_seq = event.seq
        if held.seen_join_time is None:
            held.seen_join_time = joined
        return True

    @rule(now=TIMES)
    def sweep(self, now):
        expired = self.refresh.sweep(self.pl, now)
        stale = [
            v for v in sorted(self.model)
            if now - self.model[v].last_refresh
            > self.refresh.expiry_age(self.model[v].level)
        ]
        assert expired == [self.model.pop(v) for v in stale]

    @rule(pointers=st.lists(POINTERS, max_size=12))
    def load_sorted(self, pointers):
        # As the seeding population does, it reads the owner's table.
        population = PeerList(NodeId(0, BITS), 0, self.pl._table)
        for pointer in pointers:
            population.add(pointer)
        with pytest.raises(ValueError):
            self.pl.load_sorted(PeerList(NodeId(0, BITS), 0))  # another table
        self.pl.load_sorted(population)
        self.model = {
            p.node_id.value: p for p in population if covered(p.node_id.value, self.level)
        }
        assert len(population) == len({p.node_id.value for p in pointers})

    # -- the twin: another list's writes to the same ids --------------------

    def _twin_value(self, data) -> int:
        """Usually an id the first list holds."""
        held = sorted(self.model) + sorted(self.twin_model)
        pool = st.sampled_from(held) if held else VALUES
        return data.draw(st.one_of(pool, pool, VALUES))

    @rule(pointer=POINTERS, data=st.data())
    def twin_add(self, pointer, data):
        pointer.node_id = NodeId(self._twin_value(data), BITS)
        value = pointer.node_id.value
        assert self.twin.add(pointer) == (value not in self.twin_model)
        self.twin_model[value] = pointer.copy()

    @rule(address=ADDRESSES, data=st.data())
    def twin_update(self, address, data):
        value = self._twin_value(data)
        held = self.twin_model.get(value)
        assert self.twin.update(NodeId(value, BITS), address=address) == (held is not None)
        if held is not None:
            held.address = address

    @rule(data=st.data())
    def twin_remove(self, data):
        value = self._twin_value(data)
        assert self.twin.remove(NodeId(value, BITS)) == self.twin_model.pop(value, None)

    @rule()
    def clear(self):
        self.pl.clear()
        self.model.clear()

    # -- what must agree after every one of them ------------------------------

    @invariant()
    def same_rows_in_id_order(self):
        ordered = [self.model[v] for v in sorted(self.model)]
        assert self.pl.ids() == sorted(self.model)
        assert list(self.pl) == ordered
        assert len(self.pl) == len(ordered)
        assert self.pl.owner_level == self.level

    @invariant()
    def each_list_reads_back_its_own_addresses(self):
        for pl, model in ((self.pl, self.model), (self.twin, self.twin_model)):
            ordered = [model[v] for v in sorted(model)]
            assert list(pl) == ordered
            assert same_addresses(list(pl), ordered)
            for pointer in ordered:
                assert exactly(pl.get(pointer.node_id).address, pointer.address)
        assert self.twin._table is self.pl._table

    @invariant()
    def same_lookups(self):
        for value in set(self.model) | {OWNER.value, 0, 255}:
            node_id = NodeId(value, BITS)
            assert self.pl.get(node_id) == self.model.get(value)
            assert (node_id in self.pl) == (value in self.model)

    @invariant()
    def same_groups_and_successors(self):
        ordered = [self.model[v] for v in sorted(self.model)]
        for level in {self.level, 0, 3}:
            assert self.pl.group_members(level) == [p for p in ordered if p.level == level]
        group = [p for p in ordered if p.level == self.level]
        for of_value in set(self.model) | {OWNER.value, 0, 255}:
            others = [p for p in group if p.node_id.value != of_value]
            larger = [p for p in others if p.node_id.value > of_value]
            expected = (larger or others or [None])[0]
            assert self.pl.ring_successor(NodeId(of_value, BITS)) == expected

    @invariant()
    def same_audience(self):
        ordered = [self.model[v] for v in sorted(self.model)]
        for subject_value, start_bit in ((OWNER.value ^ 1, 0), (0b10010000, 2), (7, BITS)):
            subject = NodeId(subject_value, BITS)
            by_bit = {}
            for p in ordered:
                if p.node_id.value in (OWNER.value, subject_value):
                    continue
                if p.node_id.shares_prefix(subject, p.level):  # in the audience
                    by_bit.setdefault(p.node_id.common_prefix_len(OWNER), []).append(p)
            assert self.pl.audience_by_bit(OWNER, subject, start_bit) == {
                bit: found for bit, found in by_bit.items() if bit >= start_bit
            }
            for bit in range(BITS):
                assert self.pl.multicast_candidates(OWNER, subject, bit) == by_bit.get(bit, [])


TestPeerListVsDict = PeerListVsDict.TestCase
TestPeerListVsDict.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None, derandomize=True
)


def test_a_256_bit_list_holds_a_level_256_row():
    """Levels are one byte up to 255-bit ids; at 256 bits (which the
    config allows) a level can be 256, and the column widens."""
    owner = NodeId((1 << 256) - 1, 256)
    pl = PeerList(owner, 256)
    pointer = Pointer(owner, "self", 256, last_event_seq=2**31 - 1)
    assert pl.add(pointer)
    assert pl.get(owner) == pointer and pl.ring_successor(owner) is None
    assert pl.group_members() == [pointer]
    assert pl.update(owner, level=255) and pl.get(owner).level == 255


def test_an_out_of_range_seq_is_refused_by_name_before_any_write():
    pl = PeerList(OWNER, 0)
    pl.add(Pointer(OWNER, "self", 0))
    for seq in (2**31, -2, 2**63):
        bad = Pointer(NodeId(5, BITS), "x", 1, last_event_seq=seq)
        with pytest.raises(ValueError, match="last_event_seq"):
            pl.add(bad)
        with pytest.raises(ValueError, match="last_event_seq"):
            pl.update(OWNER, level=3, last_event_seq=seq)
    assert list(pl) == [Pointer(OWNER, "self", 0)]
