"""The columnar peer list against a model: every operation that writes
a list, driven by hypothesis next to a plain ``dict[int, Pointer]`` whose
entries are mutated in place — the structure and the semantics the
columns replaced — and compared through everything that reads one."""

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
INFOS = st.sampled_from([None, None, "info", ("tuple", 1)])
TIMES = st.sampled_from([0.0, 1.0, 5.0, 40.0, 90.0])
SEQS = st.integers(-1, 6)
POINTERS = st.builds(
    lambda value, level, info, joined, refreshed, seq: Pointer(
        NodeId(value, BITS), f"addr-{value}", level, info, joined, refreshed, seq
    ),
    VALUES, LEVELS, INFOS, st.one_of(st.none(), TIMES), TIMES, SEQS,
)


def covered(value: int, level: int) -> bool:
    return NodeId(value, BITS).shares_prefix(OWNER, level)


class PeerListVsDict(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.level = 2
        self.pl = PeerList(OWNER, self.level)
        self.model = {}  # id value -> Pointer, mutated in place
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
                    "address": st.sampled_from(["moved", 7]),
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
        population = PeerList(NodeId(0, BITS), 0)
        for pointer in pointers:
            population.add(pointer)
        self.pl.load_sorted(population)
        self.model = {
            p.node_id.value: p for p in population if covered(p.node_id.value, self.level)
        }
        assert len(population) == len({p.node_id.value for p in pointers})

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
    max_examples=80, stateful_step_count=30, deadline=None
)
