"""The peer list: a node's collection of pointers, stored as columns.

§2 makes a pointer four plain fields and a peer list *every* live node
under an eigenstring, so the structure the protocol rests on is a sorted
table of small rows.  It is stored as one: parallel columns ordered by id
value, row ``i`` of each describing the same node —

====================  =================  ================================
column                type               why
====================  =================  ================================
``_ids``              ``list[int]``      the sort key; everything bisects
``_node_ids``         ``list[NodeId]``   immutable, shared with the sender
``_addresses``        ``list``           the transport key, any hashable
``_levels``           ``array('H')``     unboxed: the collector never walks
``_refreshed``        ``array('d')``     them and a row costs 18 bytes of
``_seqs``             ``array('q')``     typed storage, not an object
``_extras``           ``dict`` (sparse)  id -> (attached_info,
                                         seen_join_time), only where
                                         either is set
====================  =================  ================================

:class:`~repro.core.pointer.Pointer` is the value type at the boundary:
:meth:`PeerList.add` copies a pointer's fields *in*, and ``get`` /
iteration / ``ring_successor`` / ``remove`` / ``group_members`` build a
fresh pointer *out*.  No caller ever holds a reference into a list, so
two nodes (or two logical processes) cannot share a row by accident and
a stored entry changes only through :meth:`PeerList.update`.  One list
holds ids of one width — the owner's — which is what makes the int
column comparable; another width is refused at the write.

Costs, with n = ``len(peer_list)``:

* ``get`` / ``in`` / ``update``: one bisect, O(log n);
* ``add`` / ``remove``: the bisect plus an O(n) ``memmove`` per column
  (machine words and typed scalars: cheap next to a tree at these sizes);
* the ring successor (§4.1, figure 3 — *"the node whose nodeId is just
  larger"* within the owner's group): a bisect, then a C-level scan of
  the level column, one pointer built;
* a multicast forward from bit ``s``: one pass over the rows that share
  the forwarder's first ``s`` bits (a bisected slice of two columns),
  whatever the id width, building one pointer per chosen target; the
  targets are deterministic because they are chosen by the total
  ``(level, id)`` key;
* ``retarget`` / ``load_sorted``: two bisects and one slice per column.

No per-bit or per-prefix index is stored, so writes pay nothing for the
reads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import count
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.audience import prefix_range
from repro.core.errors import MembershipError, NodeIdError
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer, pointer_from_row

#: ``update`` leaves a field at this default alone.
_KEEP: Any = object()
_NO_EXTRAS = (None, None)


def strength(pointer: Pointer) -> tuple:
    """Sort key, strongest first: the highest level (minimum level value),
    ties broken by the smaller id for determinism."""
    return pointer.level, pointer.node_id.value


class PeerList:
    """Pointer container owned by one node.

    The owner's own pointer is stored too (a node trivially "collects"
    itself; keeping it uniform simplifies ring arithmetic).
    """

    def __init__(self, owner_id: NodeId, owner_level: int):
        self.owner_id = owner_id
        self.owner_level = owner_level
        self._ids: List[int] = []
        self._node_ids: List[NodeId] = []
        self._addresses: list = []
        self._levels = array("H")
        self._refreshed = array("d")
        self._seqs = array("q")
        self._extras: Dict[int, tuple] = {}

    # -- rows -----------------------------------------------------------------

    def _row(self, node_id: NodeId) -> int:
        """The row holding ``node_id``, or -1 (an id of another width is
        in no row)."""
        if node_id.bits != self.owner_id.bits:
            return -1
        ids, value = self._ids, node_id.value
        row = bisect_left(ids, value)
        return row if row < len(ids) and ids[row] == value else -1

    def _pointer(self, row: int) -> Pointer:
        info = joined = None
        if self._extras:
            info, joined = self._extras.get(self._ids[row], _NO_EXTRAS)
        return pointer_from_row(
            self._node_ids[row],
            self._addresses[row],
            self._levels[row],
            info,
            joined,
            self._refreshed[row],
            self._seqs[row],
        )

    def _delete(self, start: int, stop: int) -> None:
        if self._extras:
            for value in self._ids[start:stop]:
                self._extras.pop(value, None)
        del self._ids[start:stop], self._node_ids[start:stop]
        del self._addresses[start:stop], self._levels[start:stop]
        del self._refreshed[start:stop], self._seqs[start:stop]

    def _set_extras(self, value: int, info: Any, joined: Optional[float]) -> None:
        if info is not None or joined is not None:
            self._extras[value] = (info, joined)
        elif self._extras:
            self._extras.pop(value, None)

    def _check_level(self, level: int) -> None:
        if level < 0:
            raise NodeIdError("pointer level must be >= 0")
        if level > self.owner_id.bits:
            raise NodeIdError(
                f"pointer level {level} exceeds id width {self.owner_id.bits}"
            )

    # -- basic container ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: NodeId) -> bool:
        return self._row(node_id) >= 0

    def __iter__(self) -> Iterator[Pointer]:
        """Fresh pointers in ascending id order (deterministic)."""
        extras = self._extras.get
        for value, node_id, address, level, refreshed, seq in zip(
            self._ids, self._node_ids, self._addresses,
            self._levels, self._refreshed, self._seqs,
        ):
            info, joined = extras(value, _NO_EXTRAS)
            yield pointer_from_row(node_id, address, level, info, joined, refreshed, seq)

    def get(self, node_id: NodeId) -> Optional[Pointer]:
        """A copy of the entry for ``node_id``, or None."""
        row = self._row(node_id)
        return self._pointer(row) if row >= 0 else None

    def ids(self) -> List[int]:
        """Sorted id values (snapshot copy)."""
        return list(self._ids)

    def sharing_prefix(self, node_id: NodeId, length: int) -> List[Pointer]:
        """Fresh pointers, in id order, for the entries whose ids share the
        first ``length`` bits of ``node_id`` (the §4.3 download): one
        bisected slice.  :class:`NodeIdError` for an id of another width
        or a length outside ``[0, bits]``."""
        if node_id.bits != self.owner_id.bits:
            raise NodeIdError("cannot compare ids of different widths")
        start, stop = prefix_range(self._ids, node_id.value, node_id.bits, length)
        pointer = self._pointer
        return [pointer(row) for row in range(start, stop)]

    def add(self, pointer: Pointer, strict: bool = True) -> bool:
        """Insert or overwrite the entry for ``pointer.node_id`` with a
        copy of the pointer's fields.

        The id must be as wide as the owner's and the level within it
        (:class:`NodeIdError`).  With ``strict`` (default) the pointer must
        also belong in this peer list — share the owner's first
        ``owner_level`` bits — otherwise :class:`MembershipError` is
        raised; the protocol never legitimately stores out-of-prefix
        pointers.  Returns True if the entry is new.
        """
        node_id = pointer.node_id
        if node_id.bits != self.owner_id.bits:
            raise NodeIdError("cannot compare ids of different widths")
        self._check_level(pointer.level)
        ids, value = self._ids, node_id.value
        if strict:
            shift = node_id.bits - self.owner_level
            if not 0 <= shift <= node_id.bits:
                raise NodeIdError(f"invalid holder level {self.owner_level}")
            if (value ^ self.owner_id.value) >> shift:
                raise MembershipError(
                    f"pointer {node_id!r} outside owner prefix "
                    f"(owner level {self.owner_level})"
                )
        row = bisect_left(ids, value)
        is_new = row == len(ids) or ids[row] != value
        if is_new:
            ids.insert(row, value)
            self._node_ids.insert(row, node_id)
            self._addresses.insert(row, pointer.address)
            self._levels.insert(row, pointer.level)
            self._refreshed.insert(row, pointer.last_refresh)
            self._seqs.insert(row, pointer.last_event_seq)
        else:
            self._node_ids[row] = node_id
            self._addresses[row] = pointer.address
            self._levels[row] = pointer.level
            self._refreshed[row] = pointer.last_refresh
            self._seqs[row] = pointer.last_event_seq
        self._set_extras(value, pointer.attached_info, pointer.seen_join_time)
        return is_new

    def update(
        self,
        node_id: NodeId,
        *,
        address: Any = _KEEP,
        level: Any = _KEEP,
        attached_info: Any = _KEEP,
        seen_join_time: Any = _KEEP,
        last_refresh: Any = _KEEP,
        last_event_seq: Any = _KEEP,
    ) -> bool:
        """Overwrite the named fields of the entry for ``node_id`` in
        place — the only way a stored row changes.  Validates like
        ``Pointer`` does; returns False (and writes nothing) when the
        list holds no such entry."""
        if node_id.bits != self.owner_id.bits:
            raise NodeIdError("cannot compare ids of different widths")
        row = self._row(node_id)
        if row < 0:
            return False
        if level is not _KEEP:
            self._check_level(level)
            self._levels[row] = level
        if address is not _KEEP:
            self._addresses[row] = address
        if last_refresh is not _KEEP:
            self._refreshed[row] = last_refresh
        if last_event_seq is not _KEEP:
            self._seqs[row] = last_event_seq
        if attached_info is not _KEEP or seen_join_time is not _KEEP:
            info, joined = self._extras.get(node_id.value, _NO_EXTRAS)
            self._set_extras(
                node_id.value,
                info if attached_info is _KEEP else attached_info,
                joined if seen_join_time is _KEEP else seen_join_time,
            )
        return True

    def remove(self, node_id: NodeId) -> Optional[Pointer]:
        """Remove and return the entry, or None if absent."""
        row = self._row(node_id)
        if row < 0:
            return None
        info = joined = None
        if self._extras:
            info, joined = self._extras.pop(node_id.value, _NO_EXTRAS)
        del self._ids[row]
        return pointer_from_row(
            self._node_ids.pop(row),
            self._addresses.pop(row),
            self._levels.pop(row),
            info,
            joined,
            self._refreshed.pop(row),
            self._seqs.pop(row),
        )

    def clear(self) -> None:
        self._delete(0, len(self._ids))

    def load_sorted(self, source: "PeerList") -> None:
        """Replace this list's rows with the rows of ``source`` under the
        owner's prefix: one bisected slice per column, no per-row work.

        ``source`` is any list of the same id width whose rows were
        validated on their way in (the seeding population); a slice of a
        sorted, validated table is sorted and valid, and the rows between
        two ids that share the owner's prefix share it, so nothing is
        re-checked.  The slices are copies: the two lists share only
        immutable ``NodeId``s and whatever the application attached.
        """
        if source.owner_id.bits != self.owner_id.bits:
            raise NodeIdError("cannot compare ids of different widths")
        start, stop = prefix_range(
            source._ids, self.owner_id.value, self.owner_id.bits, self.owner_level
        )
        self._ids = source._ids[start:stop]
        self._node_ids = source._node_ids[start:stop]
        self._addresses = source._addresses[start:stop]
        self._levels = source._levels[start:stop]
        self._refreshed = source._refreshed[start:stop]
        self._seqs = source._seqs[start:stop]
        extras = source._extras
        self._extras = (
            {value: extras[value] for value in self._ids if value in extras}
            if extras
            else {}
        )

    # -- level changes ----------------------------------------------------------

    def retarget(self, new_level: int) -> List[Pointer]:
        """Change the owner's level, evicting pointers that fall outside the
        new (longer) prefix.  Returns the evicted pointers.  Lowering the
        level value (raising the level) never evicts; the caller is
        responsible for downloading the newly-covered pointers (§4.3).
        """
        if new_level < 0 or new_level > self.owner_id.bits:
            raise MembershipError(f"invalid level {new_level}")
        self.owner_level = new_level
        start, stop = prefix_range(
            self._ids, self.owner_id.value, self.owner_id.bits, new_level
        )
        size = len(self._ids)
        if stop - start == size:
            return []
        evicted = [self._pointer(row) for row in range(start)]
        evicted += [self._pointer(row) for row in range(stop, size)]
        self._delete(stop, size)
        self._delete(0, start)
        return evicted

    # -- ring / group queries ------------------------------------------------

    def group_members(self, level: Optional[int] = None) -> List[Pointer]:
        """Pointers in the owner's eigenstring group: same level as the
        owner (all peer-list entries already share the prefix)."""
        lvl = self.owner_level if level is None else level
        pointer = self._pointer
        return [pointer(row) for row, held in enumerate(self._levels) if held == lvl]

    def ring_successor(self, of_id: NodeId) -> Optional[Pointer]:
        """The failure-detection target: the group member whose id is
        *just larger* than ``of_id``, wrapping around (§4.1).  Returns None
        when the group has no other member."""
        levels, level = self._levels, self.owner_level
        start = bisect_right(self._ids, of_id.value)
        try:
            return self._pointer(levels.index(level, start))
        except ValueError:
            pass
        try:
            # Rows before ``start`` hold ids <= of_id, and only the last of
            # them can be of_id itself.
            row = levels.index(level, 0, start)
        except ValueError:
            return None
        return self._pointer(row) if self._ids[row] != of_id.value else None

    def unrefreshed(self, now: float, max_age: Callable[[int], float]) -> List[NodeId]:
        """Ids of the entries not refreshed for longer than
        ``max_age(level)`` — the §4.6 expiry test, read off the level and
        refresh columns."""
        ages: Dict[int, float] = {}
        stale = []
        for node_id, level, refreshed in zip(
            self._node_ids, self._levels, self._refreshed
        ):
            age = ages.get(level)
            if age is None:
                age = ages[level] = max_age(level)
            if now - refreshed > age:
                stale.append(node_id)
        return stale

    # -- multicast candidate scan ---------------------------------------------

    def _audience_rows(
        self, local_id: NodeId, subject_id: NodeId, start_bit: int
    ) -> Dict[int, List[Tuple[int, int, int]]]:
        """Step -> ``(level, id, row)`` of its §4.2 candidates, for every
        step ``>= start_bit`` (see :meth:`audience_by_bit`).

        An id first differs from ``local_id`` at a bit ``>= start_bit``
        iff it shares the first ``start_bit`` bits, so only that run of
        the sorted rows is read.
        """
        bits = self.owner_id.bits
        if local_id.bits != bits or subject_id.bits != bits:
            raise NodeIdError("cannot compare ids of different widths")
        local_value, subject_value = local_id.value, subject_id.value
        start, stop = prefix_range(self._ids, local_value, bits, min(start_bit, bits))
        by_bit: Dict[int, List[Tuple[int, int, int]]] = {}
        for row, value, level in zip(
            count(start), self._ids[start:stop], self._levels[start:stop]
        ):
            if (value ^ subject_value) >> (bits - level):
                continue  # not in the subject's audience
            if value == local_value or value == subject_value:
                continue
            bit = bits - (value ^ local_value).bit_length()
            by_bit.setdefault(bit, []).append((level, value, row))
        return by_bit

    def audience_by_bit(
        self,
        local_id: NodeId,
        subject_id: NodeId,
        start_bit: int = 0,
    ) -> Dict[int, List[Pointer]]:
        """The §4.2 candidates of every step ``>= start_bit``, in one pass.

        A pointer is a candidate at step ``b`` iff it is in the audience
        of ``subject_id`` (its first ``level`` bits are the subject's),
        shares the local node's first ``b`` bits and differs at bit ``b``
        — so each audience member belongs to exactly one step, the first
        bit at which its id differs from ``local_id``.  Returns step ->
        candidates in id order; steps with no candidate are absent.  The
        subject itself and the local node are excluded.
        """
        pointer = self._pointer
        return {
            bit: [pointer(row) for _, _, row in rows]
            for bit, rows in self._audience_rows(local_id, subject_id, start_bit).items()
        }

    def strongest_by_bit(
        self, local_id: NodeId, subject_id: NodeId, start_bit: int
    ) -> List[Tuple[int, Pointer]]:
        """``(step, target)`` for the strongest candidate of every step
        ``>= start_bit``, steps ascending — what one multicast forward
        sends to.  Only the chosen rows become pointers."""
        by_bit = self._audience_rows(local_id, subject_id, start_bit)
        pointer = self._pointer
        return [(bit, pointer(min(by_bit[bit])[2])) for bit in sorted(by_bit)]

    def multicast_candidates(
        self,
        local_id: NodeId,
        subject_id: NodeId,
        bit: int,
    ) -> List[Pointer]:
        """Candidates for the single multicast step ``bit`` (the redirect
        path's query; see :meth:`audience_by_bit`)."""
        rows = self._audience_rows(local_id, subject_id, bit).get(bit, ())
        return [self._pointer(row) for _, _, row in rows]

    def strongest(self, pointers: List[Pointer]) -> Optional[Pointer]:
        """The first pointer by :func:`strength`; None for an empty list."""
        return min(pointers, key=strength, default=None)
