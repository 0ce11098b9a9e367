"""Top-node list maintenance (§2, §4.5), stored as rows.

Every node keeps a *top-node list* of ``t`` pointers (t = 8 by default) to
the top nodes of its part, used to report state-changing events.  The list
is maintained **lazily**: report acks piggyback ``t-1`` fresh top-node
pointers; unresponsive entries are dropped at use time; when the list
runs dry the node asks a peer for its list as a substitution.

A *top node's* own top-node list is different (§4.4): it holds pointers to
top nodes of **other parts**, ``t`` per part, keyed by the part prefix.
:class:`CrossPartTopList` implements that variant.  A top node's bridge
subscribers (DESIGN.md §8) are one more :class:`TopNodeList`.

Both keep :class:`~repro.core.peerlist.PeerList`'s row layout:

====================  =======================  ==========================
column                type                     holds
====================  =======================  ==========================
``_ids``              ``list[int]``            the id, bisected
``_levels``           ``array('B')`` (``'H'``  the level
                      at 256 bits)
``_refreshed``        ``array('d')``           the last refresh
``_seqs``             ``array('i')``           the seq, in
                                               ``[-1, MAX_SEQ]``
``_extras``           ``list``                 ``(attached_info,
                                               seen_join_time, address)``
                                               where one is set, else
                                               ``None``
====================  =======================  ==========================

— and, like it, no address column: a row's address is its id's entry in
the ``id value -> address`` table the list is handed (its node's, shared
with the node's peer list), unless the row wrote a different one, which
its extras keep.  One table holds ids of one width, set by its first
row.  No list holds a :class:`~repro.core.pointer.Pointer`: ``merge``
copies a pointer's fields in, and every read (``pointers``, ``choose``,
``remove``, ``for_part``, ``find_for_id``) builds a fresh one out, so no
caller — and no other node — can hold a reference into a list.

Cross-part rows carry their part prefix and are sorted by ``(part, id)``,
so one part is a contiguous, bisected run.  The table is allocated at a
node's first cross-part merge: a node that never becomes a top node has
none.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import NodeIdError
from repro.core.nodeid import NodeId, node_id_from_row
from repro.core.peerlist import SHARED, AddressTable, check_seq, level_column, row_address
from repro.core.pointer import Pointer, pointer_from_row

_NO_EXTRAS = (None, None, SHARED)


class _Rows:
    """Pointer rows, sorted by id within each run the owner bisects."""

    __slots__ = ("_bits", "_table", "_ids", "_levels", "_refreshed", "_seqs", "_extras")

    def __init__(self, addresses: AddressTable) -> None:
        self._bits = 0
        self._table = addresses
        self._ids: List[int] = []
        self._levels = level_column(0)
        self._refreshed = array("d")
        self._seqs = array("i")
        self._extras: List[Optional[tuple]] = []

    def __len__(self) -> int:
        return len(self._ids)

    def _find(self, node_id: NodeId, lo: int, hi: int) -> int:
        """The row in ``[lo, hi)`` holding ``node_id``, or -1 (an id of
        another width is in no row)."""
        if node_id.bits != self._bits:
            return -1
        ids, value = self._ids, node_id.value
        row = bisect_left(ids, value, lo, hi)
        return row if row < hi and ids[row] == value else -1

    def _pointer(self, row: int) -> Pointer:
        value = self._ids[row]
        extras = self._extras[row]
        info, joined, address = _NO_EXTRAS if extras is None else extras
        return pointer_from_row(
            node_id_from_row(value, self._bits),
            self._table[value] if address is SHARED else address,
            self._levels[row],
            info,
            joined,
            self._refreshed[row],
            self._seqs[row],
        )

    def _pointers(self, lo: int, hi: int) -> List[Pointer]:
        pointer = self._pointer
        return [pointer(row) for row in range(lo, hi)]

    def _upsert(self, lo: int, hi: int, p: Pointer) -> Optional[int]:
        """Fold ``p`` into the run ``[lo, hi)``: insert it, or overwrite
        the held row when ``p`` is at least as fresh.  Returns the new
        row's index, or None when the id was already held."""
        node_id, level = p.node_id, p.level
        if node_id.bits != self._bits:
            if self._ids:
                raise NodeIdError("cannot compare ids of different widths")
            self._bits = node_id.bits
            self._levels = level_column(node_id.bits)
        if not 0 <= level <= node_id.bits:
            raise NodeIdError(f"pointer level {level} outside [0, {node_id.bits}]")
        check_seq(p.last_event_seq)
        ids, value = self._ids, node_id.value
        row = bisect_left(ids, value, lo, hi)
        held = row < hi and ids[row] == value
        if held and p.last_refresh < self._refreshed[row]:
            return None
        address = row_address(self._table, value, p.address)
        extras = (
            None
            if p.attached_info is None and p.seen_join_time is None and address is SHARED
            else (p.attached_info, p.seen_join_time, address)
        )
        if held:
            self._levels[row] = level
            self._refreshed[row] = p.last_refresh
            self._seqs[row] = p.last_event_seq
            self._extras[row] = extras
            return None
        ids.insert(row, value)
        self._levels.insert(row, level)
        self._refreshed.insert(row, p.last_refresh)
        self._seqs.insert(row, p.last_event_seq)
        self._extras.insert(row, extras)
        return row

    def _delete(self, row: int) -> None:
        del self._ids[row], self._levels[row]
        del self._refreshed[row], self._seqs[row], self._extras[row]

    def _evict(self, lo: int, hi: int, capacity: int) -> None:
        """Drop the oldest-refreshed rows of ``[lo, hi)`` (ties: the
        smaller id) until at most ``capacity`` remain."""
        ids, refreshed = self._ids, self._refreshed
        while hi - lo > capacity:
            self._delete(min(range(lo, hi), key=lambda row: (refreshed[row], ids[row])))
            hi -= 1


class TopNodeList(_Rows):
    """A bounded list of pointers to the top nodes of the local part,
    reading addresses from ``addresses`` (its own table without one)."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: int = 8, addresses: Optional[AddressTable] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__({} if addresses is None else addresses)
        self.capacity = capacity

    def __contains__(self, node_id: NodeId) -> bool:
        return self._find(node_id, 0, len(self._ids)) >= 0

    def pointers(self) -> List[Pointer]:
        """Fresh pointers in ascending id order (deterministic)."""
        return self._pointers(0, len(self._ids))

    def merge(self, pointers: List[Pointer]) -> int:
        """Fold piggybacked pointers in, preferring the freshest entry per
        id and evicting the oldest-refreshed entries beyond capacity.
        Returns how many new ids were added.  Only the pointers' fields
        are stored, so a received pointer may be passed as it is."""
        added = 0
        for p in pointers:
            if self._upsert(0, len(self._ids), p) is not None:
                added += 1
        self._evict(0, len(self._ids), self.capacity)
        return added

    def remove(self, node_id: NodeId) -> Optional[Pointer]:
        """Remove and return the entry, or None if absent."""
        row = self._find(node_id, 0, len(self._ids))
        if row < 0:
            return None
        removed = self._pointer(row)
        self._delete(row)
        return removed

    def choose(self, rng: np.random.Generator) -> Optional[Pointer]:
        """A uniformly random entry (§4.1: reports go to *"a top node,
        randomly chosen from its top-node list"*): one draw indexes the
        sorted id column."""
        if not self._ids:
            return None
        return self._pointer(int(rng.integers(0, len(self._ids))))

    def min_level(self) -> Optional[int]:
        """Smallest level value among entries (the part's top level as
        currently believed); None when empty."""
        return min(self._levels) if self._ids else None

    def clear(self) -> None:
        for column in (self._ids, self._levels, self._refreshed, self._seqs, self._extras):
            del column[:]


class _PartRows(_Rows):
    """Cross-part rows: a part column beside the pointer columns, the
    rows sorted by ``(part, id)``."""

    __slots__ = ("_parts",)

    def __init__(self, addresses: AddressTable) -> None:
        super().__init__(addresses)
        self._parts: List[str] = []

    def _run(self, part_prefix: str) -> Tuple[int, int]:
        parts = self._parts
        return bisect_left(parts, part_prefix), bisect_right(parts, part_prefix)

    def _delete(self, row: int) -> None:
        del self._parts[row]
        super()._delete(row)


class CrossPartTopList:
    """A top node's map from *other* part prefixes to their top nodes.

    Keys are part-prefix bitstrings ('0'/'1' strings); each part keeps at
    most ``per_part`` pointers.  Addresses are read from ``addresses``
    (its own table without one).
    """

    __slots__ = ("per_part", "_table", "_rows")

    def __init__(self, per_part: int = 8, addresses: Optional[AddressTable] = None):
        if per_part < 1:
            raise ValueError("per_part must be >= 1")
        self.per_part = per_part
        self._table = {} if addresses is None else addresses
        self._rows: Optional[_PartRows] = None

    def parts(self) -> List[str]:
        """Prefixes holding at least one pointer, sorted."""
        return list(dict.fromkeys(self._rows._parts)) if self._rows else []

    def merge(self, part_prefix: str, pointers: List[Pointer]) -> None:
        """Fold ``pointers`` into ``part_prefix``'s run, as
        :meth:`TopNodeList.merge` does into a whole list."""
        rows = self._rows
        if rows is None:
            if not pointers:
                return
            rows = self._rows = _PartRows(self._table)
        lo, hi = rows._run(part_prefix)
        for p in pointers:
            row = rows._upsert(lo, hi, p)
            if row is not None:
                rows._parts.insert(row, part_prefix)
                hi += 1
        rows._evict(lo, hi, self.per_part)

    def for_part(self, part_prefix: str) -> List[Pointer]:
        """Fresh pointers of ``part_prefix``'s run, in id order."""
        if not self._rows:
            return []
        return self._rows._pointers(*self._rows._run(part_prefix))

    def find_for_id(self, node_id: NodeId) -> List[Pointer]:
        """Top nodes of the part containing ``node_id``: the part whose
        prefix is a prefix of the id's bitstring (the shortest such: the
        prefixes of one string sort shortest first)."""
        bitstr = node_id.bitstring()
        for prefix in self.parts():
            if bitstr.startswith(prefix):
                return self.for_part(prefix)
        return []

    def remove(self, node_id: NodeId) -> None:
        """Drop ``node_id`` from every part."""
        rows = self._rows
        if not rows or node_id.bits != rows._bits:
            return
        value = node_id.value
        for row in reversed(range(len(rows._ids))):
            if rows._ids[row] == value:
                rows._delete(row)
