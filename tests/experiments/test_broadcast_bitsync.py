"""``binomial_broadcast`` against the §4.2 sentence, and its cost.

The engine's kernel advances every subtree one bit at a time.  The
reference here walks one subtree after another, exactly as §4.2 reads:
*at step b a node holding the event sends it to the strongest audience
member that shares its first b bits and differs in the next, and that
member repeats the procedure from step b + 1*.  The tree is determined by
the id trie and the strongest-first rule, so the two must agree element
for element.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scalable import binomial_broadcast


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
def audiences(draw):
    """Unique ids with levels; half the time a real audience (every member
    shares its own ``level`` leading bits with one subject)."""
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


def c_calls_in_one_broadcast(n: int, id_bits: int) -> int:
    """C-level calls (NumPy entry points and builtins) one broadcast makes:
    a wall-clock-free measure of how many vector steps it takes."""
    rng = np.random.default_rng(0xB175)
    ids = np.unique(rng.integers(0, 1 << id_bits, size=n, dtype=np.uint64))
    levels = rng.integers(0, 4, size=ids.size).astype(np.int32)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        depths, _ = binomial_broadcast(ids, levels, 0, id_bits)
    finally:
        sys.setprofile(None)
    assert (depths >= 0).all()
    return calls


def test_cost_is_bits_not_members():
    """At most ``id_bits`` vector steps of a fixed number of calls each,
    whatever the audience size (a per-subtree walk grows linearly in n:
    ~12 calls per member)."""
    id_bits = 40
    small = c_calls_in_one_broadcast(1_000, id_bits)
    large = c_calls_in_one_broadcast(16_000, id_bits)
    assert large <= 1.5 * small
    assert large <= 25 * id_bits
