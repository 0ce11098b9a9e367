"""The columnar top-node lists against a model: hypothesis drives
:class:`TopNodeList` and :class:`CrossPartTopList` next to the
dict-of-``Pointer`` code they replaced — kept here, and only here, as the
reference — and compares them through everything that reads a list.

The two lists read addresses from one id -> address table, as a node's
lists do, and are fed clashing addresses for the same ids (``1`` /
``True`` / ``"1"``, equal tuples that are different objects): each must
read back exactly what it last wrote, whichever wrote an id first."""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.core.topnodes import CrossPartTopList, TopNodeList

BITS = 6
VALUES = st.integers(0, (1 << BITS) - 1)
# Nested prefixes ("1" ⊂ "10" ⊂ "101"), so one id can fall in several
# parts and find_for_id must pick the shortest.
PARTS = st.sampled_from(["0", "011", "1", "10", "101", "11"])
TIMES = st.sampled_from([0.0, 1.0, 5.0, 40.0])  # few values: ties happen
# Addresses that ``==`` cannot tell apart, or only by type.
ADDRESSES = st.sampled_from([1, True, "1", 1.0, 7, "moved", ("t", 1), ("t", True)])
POINTERS = st.builds(
    lambda value, address, level, info, joined, refreshed, seq: Pointer(
        NodeId(value, BITS),
        f"addr-{value}" if address is None else address,
        level, info, joined, refreshed, seq,
    ),
    VALUES,
    st.one_of(st.none(), ADDRESSES),
    st.integers(0, BITS),
    st.sampled_from([None, None, "info", ("tuple", 1)]),
    st.one_of(st.none(), TIMES),
    TIMES,
    st.integers(-1, 6),
)


def exactly(got, want):
    """The address a list returned is the one written: an int or str
    equal and of the same type, anything else the very object."""
    if type(got) is not type(want):
        return False
    return got == want if type(want) in (int, str) else got is want


def same(pointers, expected):
    """Equal pointers, each address exactly the one written."""
    return pointers == expected and all(
        exactly(p.address, q.address) for p, q in zip(pointers, expected)
    )


class DictTopList:
    """The dict-of-``Pointer`` top-node list the columns replaced."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._pointers = {}

    def __len__(self):
        return len(self._pointers)

    def __contains__(self, node_id):
        return node_id.value in self._pointers

    def pointers(self):
        return [self._pointers[v] for v in sorted(self._pointers)]

    def merge(self, pointers):
        added = 0
        for p in pointers:
            existing = self._pointers.get(p.node_id.value)
            if existing is None:
                self._pointers[p.node_id.value] = p.copy()
                added += 1
            elif p.last_refresh >= existing.last_refresh:
                self._pointers[p.node_id.value] = p.copy()
        while len(self._pointers) > self.capacity:
            victim = min(self._pointers.values(), key=lambda q: (q.last_refresh, q.node_id.value))
            del self._pointers[victim.node_id.value]
        return added

    def remove(self, node_id):
        return self._pointers.pop(node_id.value, None)

    def choose(self, rng):
        if not self._pointers:
            return None
        keys = sorted(self._pointers)
        return self._pointers[keys[int(rng.integers(0, len(keys)))]]

    def min_level(self):
        if not self._pointers:
            return None
        return min(p.level for p in self._pointers.values())

    def clear(self):
        self._pointers.clear()


class DictCrossPartList:
    """The dict of per-part :class:`DictTopList` it replaced."""

    def __init__(self, per_part):
        self.per_part = per_part
        self._parts = {}

    def parts(self):
        return sorted(self._parts)

    def merge(self, part_prefix, pointers):
        lst = self._parts.setdefault(part_prefix, DictTopList(self.per_part))
        lst.merge(pointers)
        if len(lst) == 0:
            del self._parts[part_prefix]

    def for_part(self, part_prefix):
        lst = self._parts.get(part_prefix)
        return lst.pointers() if lst is not None else []

    def find_for_id(self, node_id):
        bitstr = node_id.bitstring()
        for prefix in sorted(self._parts, key=len):
            if bitstr.startswith(prefix):
                return self._parts[prefix].pointers()
        return []

    def remove(self, node_id):
        for prefix in list(self._parts):
            self._parts[prefix].remove(node_id)
            if len(self._parts[prefix]) == 0:
                del self._parts[prefix]


class TopListsVsDicts(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.table = {}  # the id -> address table both lists read
        self.top, self.top_model = TopNodeList(4, self.table), DictTopList(4)
        self.cross, self.cross_model = CrossPartTopList(3, self.table), DictCrossPartList(3)
        self.merged = []  # every pointer handed to a merge, for mutation

    def _value(self, data):
        """An id to aim at: usually one a list holds, sometimes not."""
        held = sorted(
            {p.node_id.value for p in self.top_model.pointers()}
            | {p.node_id.value for part in self.cross_model.parts()
               for p in self.cross_model.for_part(part)}
        )
        pool = st.sampled_from(held) if held else VALUES
        return data.draw(st.one_of(pool, pool, VALUES))

    # -- the operations ----------------------------------------------------

    @rule(pointers=st.lists(POINTERS, max_size=7))
    def merge(self, pointers):
        self.merged += pointers
        assert self.top.merge(pointers) == self.top_model.merge(pointers)

    @rule(part=PARTS, pointers=st.lists(POINTERS, max_size=5))
    def merge_part(self, part, pointers):
        self.merged += pointers
        self.cross.merge(part, pointers)
        self.cross_model.merge(part, pointers)

    @rule(data=st.data())
    def remove(self, data):
        node_id = NodeId(self._value(data), BITS)
        got, want = self.top.remove(node_id), self.top_model.remove(node_id)
        assert got == want and (want is None or exactly(got.address, want.address))

    @rule(data=st.data())
    def remove_across_parts(self, data):
        node_id = NodeId(self._value(data), BITS)
        self.cross.remove(node_id)
        self.cross_model.remove(node_id)

    @rule(seed=st.integers(0, 3))
    def choose(self, seed):
        got = self.top.choose(np.random.default_rng(seed))
        want = self.top_model.choose(np.random.default_rng(seed))
        assert got == want and (want is None or exactly(got.address, want.address))

    @rule()
    def clear(self):
        self.top.clear()
        self.top_model.clear()

    @rule(data=st.data(), level=st.integers(0, BITS), refreshed=TIMES)
    def mutate_a_merged_pointer(self, data, level, refreshed):
        # What was merged is the caller's: neither list may see this.
        if self.merged:
            p = data.draw(st.sampled_from(self.merged))
            p.level, p.last_refresh, p.address = level, refreshed, "moved"
            p.attached_info = p.seen_join_time = None

    # -- what must agree after every one of them ---------------------------

    @invariant()
    def same_top_list(self):
        assert same(self.top.pointers(), self.top_model.pointers())
        assert len(self.top) == len(self.top_model)
        assert self.top.min_level() == self.top_model.min_level()
        for value in range(1 << BITS):
            node_id = NodeId(value, BITS)
            assert (node_id in self.top) == (node_id in self.top_model)

    @invariant()
    def same_cross_parts(self):
        assert self.cross.parts() == self.cross_model.parts()
        for part in ["", "0", "011", "1", "10", "101", "11", "111"]:
            assert same(self.cross.for_part(part), self.cross_model.for_part(part))
        for value in range(0, 1 << BITS, 3):
            node_id = NodeId(value, BITS)
            assert same(self.cross.find_for_id(node_id), self.cross_model.find_for_id(node_id))


TestTopListsVsDicts = TopListsVsDicts.TestCase
TestTopListsVsDicts.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None, derandomize=True
)


def test_a_row_round_trips_attached_info_and_seen_join_time():
    pointer = Pointer(NodeId(5, BITS), "a", 2, {"app": 1}, 7.5, 3.0, 4)
    top, cross = TopNodeList(2), CrossPartTopList(2)
    top.merge([pointer])
    cross.merge("0", [pointer])
    for held in (top.pointers()[0], cross.for_part("0")[0], top.remove(pointer.node_id)):
        assert held == pointer and held is not pointer
        assert held.attached_info == {"app": 1} and held.seen_join_time == 7.5


def test_256_bit_rows_hold_a_level_256_pointer():
    """Levels are one byte up to 255-bit ids; at 256 bits (which the
    config allows) a level can be 256, and the column widens at the
    first row."""
    pointer = Pointer(NodeId(7, 256), "a", 256, last_event_seq=2**31 - 1)
    top, cross = TopNodeList(2), CrossPartTopList(2)
    top.merge([pointer])
    cross.merge("0", [pointer])
    assert top.pointers() == [pointer] and cross.for_part("0") == [pointer]
    assert top.min_level() == 256
