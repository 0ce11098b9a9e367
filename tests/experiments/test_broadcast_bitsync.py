"""``binomial_broadcast`` against the §4.2 sentence, and its cost.

The engine's kernel advances every subtree to its next split bit at once.  The
reference here walks one subtree after another, exactly as §4.2 reads:
*at step b a node holding the event sends it to the strongest audience
member that shares its first b bits and differs in the next, and that
member repeats the procedure from step b + 1*.  The tree is determined by
the id trie and the strongest-first rule, so the two must agree element
for element.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scalable import (
    ScalableParams,
    ScalableSim,
    _top_bit,
    binomial_broadcast,
)
from tests.test_costs import check


def reference_broadcast(ids, levels, root_pos, id_bits):
    """Depth-first §4.2 dissemination, one subtree root at a time."""
    n = len(ids)
    depths = np.full(n, -1, dtype=np.int32)
    sender_counts = np.zeros(n, dtype=np.int32)
    if n == 0:
        return depths, sender_counts
    ids = [int(v) for v in ids]
    depths[root_pos] = 0
    todo = [(root_pos, 0, [m for m in range(n) if m != root_pos])]
    while todo:
        sender, start_bit, members = todo.pop()
        for b in range(start_bit, id_bits):
            shift = id_bits - 1 - b
            far = [m for m in members if (ids[m] ^ ids[sender]) >> shift & 1]
            if not far:
                continue
            members = [m for m in members if not (ids[m] ^ ids[sender]) >> shift & 1]
            target = min(far, key=lambda m: (levels[m], ids[m]))
            depths[target] = depths[sender] + 1
            sender_counts[sender] += 1
            todo.append((target, b + 1, [m for m in far if m != target]))
    return depths, sender_counts


@st.composite
def audiences(draw, repeats=False):
    """Unique ids with levels; half the time a real audience (every member
    shares its own ``level`` leading bits with one subject).  With
    ``repeats`` some ids occur more than once, each copy with its own level."""
    id_bits = draw(st.integers(min_value=8, max_value=62))
    n = draw(st.integers(min_value=0, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = rng.integers(0, 7, size=n).astype(np.int32)
    ids = rng.integers(0, 1 << id_bits, size=n, dtype=np.uint64)
    if draw(st.booleans()):
        subject = np.uint64(rng.integers(0, 1 << id_bits, dtype=np.uint64))
        keep = np.uint64(id_bits) - levels.astype(np.uint64)  # suffix width
        ids = ((subject >> keep) << keep) | (ids & ((np.uint64(1) << keep) - np.uint64(1)))
    ids, first = np.unique(ids, return_index=True)
    levels = levels[first]
    if repeats and ids.size:
        copies = rng.integers(0, ids.size, size=draw(st.integers(1, 20)))
        ids = np.concatenate((ids, ids[copies]))
        levels = np.concatenate((levels, rng.integers(0, 7, size=copies.size).astype(np.int32)))
    # Unsorted input: the kernel must not rely on the caller's order.
    shuffle = rng.permutation(ids.size)
    ids, levels = ids[shuffle], levels[shuffle]
    root_pos = draw(st.integers(min_value=0, max_value=max(ids.size - 1, 0)))
    return ids, levels, root_pos, id_bits


def assert_matches_reference(ids, levels, root_pos, id_bits):
    depths, senders = binomial_broadcast(ids, levels, root_pos, id_bits)
    ref_depths, ref_senders = reference_broadcast(ids, levels, root_pos, id_bits)
    assert depths.dtype == ref_depths.dtype and senders.dtype == ref_senders.dtype
    assert depths.tolist() == ref_depths.tolist()
    assert senders.tolist() == ref_senders.tolist()
    return depths, senders


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(audiences())
    def test_any_audience_any_root(self, audience):
        ids, levels, root_pos, id_bits = audience
        depths, senders = assert_matches_reference(ids, levels, root_pos, id_bits)
        assert (depths >= 0).all()  # unique ids: everyone is reached
        assert senders.sum() == max(ids.size - 1, 0)

    @settings(max_examples=100, deadline=None)
    @given(audiences(repeats=True))
    def test_repeated_ids_any_root(self, audience):
        """Copies of one id at one level tie; the tie-break (input order)
        must pick the copy the reference's ``min`` picks, and only one copy
        per id is reached."""
        ids, levels, root_pos, id_bits = audience
        depths, senders = assert_matches_reference(ids, levels, root_pos, id_bits)
        distinct = np.unique(ids).size
        assert (depths >= 0).sum() == distinct
        assert senders.sum() == max(distinct - 1, 0)

    def test_engine_population(self):
        """The ids and levels of a seeded 5,000-node engine, rooted at its
        strongest node, as ``_sample_tree`` roots a tree."""
        sim = ScalableSim(ScalableParams(n_target=5_000, seed=11, use_transit_stub=False))
        sim.seed_population()
        live = np.flatnonzero(sim.alive)
        ids = sim.ids[live]
        levels = sim.levels[live].astype(np.int32)
        root_pos = int(np.lexsort((ids, levels))[0])
        depths, senders = assert_matches_reference(ids, levels, root_pos, sim.p.id_bits)
        assert (depths >= 0).all() and senders.sum() == ids.size - 1

    @pytest.mark.parametrize("n,root_pos", [(0, 0), (1, 0), (2, 0), (2, 1)])
    def test_tiny_audiences(self, n, root_pos):
        ids = np.array([0b1011_0000, 0b1010_1111][:n], dtype=np.uint64)
        levels = np.array([2, 0][:n], dtype=np.int32)
        depths, senders = assert_matches_reference(ids, levels, root_pos, 8)
        if n == 2:
            assert depths.tolist() == ([0, 1] if root_pos == 0 else [1, 0])
            assert senders[root_pos] == 1

    def test_duplicate_ids_stay_unreached(self):
        """Ill-formed input: a second copy of an id can never differ from the
        first in any bit, so it keeps -1 (and nothing raises)."""
        ids = np.array([5, 9, 9, 12], dtype=np.uint64)
        levels = np.zeros(4, dtype=np.int32)
        depths, _ = assert_matches_reference(ids, levels, 0, 8)
        assert (depths == -1).sum() == 1 and depths[1] * depths[2] < 0


class TestSplitBit:
    """A trie node splits at the highest bit where its first and last ids
    differ.  Above 2**53 a float64 cannot hold ``2**k - 1`` and rounds it up
    to ``2**k``, one bit too high; the split bit must still be exact."""

    @pytest.mark.parametrize("k", range(1, 64))
    def test_top_bit_is_exact(self, k):
        values = [(1 << k) - 1, 1 << (k - 1), (1 << (k - 1)) + 1]
        top = _top_bit(np.array(values, dtype=np.uint64))
        assert top.tolist() == [v.bit_length() - 1 for v in values]

    @pytest.mark.parametrize("id_bits", range(54, 63))
    @pytest.mark.parametrize("repeats", [False, True])
    def test_ids_that_differ_by_all_ones(self, id_bits, repeats):
        """First and last ids whose XOR is ``2**k - 1``, at the top of the
        id space and under a shared prefix, with members in between; a copy
        of an id keeps its -1."""
        rng = np.random.default_rng(id_bits)
        spans = [(0, id_bits), (1, id_bits - 1), (0b101, id_bits - 3)]
        ids = []
        for prefix, k in spans:
            low = prefix << k
            inside = rng.integers(0, 1 << k, size=6, dtype=np.uint64).tolist()
            ids += [low, low | ((1 << k) - 1), *(low | v for v in inside)]
        ids = np.unique(np.array(ids, dtype=np.uint64))
        distinct = ids.size
        if repeats:
            ids = np.concatenate((ids, ids[[0, -1, 3]]))
        levels = rng.integers(0, 4, size=ids.size).astype(np.int32)
        shuffle = rng.permutation(ids.size)
        depths, senders = assert_matches_reference(ids[shuffle], levels[shuffle], 0, id_bits)
        assert (depths >= 0).sum() == distinct
        assert senders.sum() == distinct - 1


class TestRefusals:
    """Inputs the kernel cannot build a tree for are refused by name, not
    turned into some other tree."""

    ids = np.array([0b0001_0000, 0b0100_0000, 0b1000_0000, 0b1100_0000], dtype=np.uint64)
    levels = np.zeros(4, dtype=np.int32)

    @pytest.mark.parametrize("root_pos", [-1, 4])
    def test_root_outside_the_audience(self, root_pos):
        with pytest.raises(ValueError, match="root_pos"):
            binomial_broadcast(self.ids, self.levels, root_pos, 8)

    def test_ids_not_uint64(self):
        with pytest.raises(ValueError, match="uint64"):
            binomial_broadcast(self.ids.astype(np.int64), self.levels, 0, 8)

    def test_shapes_differ(self):
        with pytest.raises(ValueError, match="ids and levels"):
            binomial_broadcast(self.ids, self.levels[:3], 0, 8)

    def test_id_wider_than_id_bits(self):
        ids = self.ids.copy()
        ids[2] = 300
        with pytest.raises(ValueError, match="id_bits"):
            binomial_broadcast(ids, self.levels, 0, 8)

    def test_widest_id_is_accepted(self):
        ids = self.ids.copy()
        ids[2] = 255
        assert_matches_reference(ids, self.levels, 0, 8)


@pytest.mark.costs
def test_cost_is_bits_not_members():
    check("broadcast", 16_000)
