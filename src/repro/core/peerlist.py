"""The peer list: a node's collection of pointers.

Backing structure: a dict (id value -> :class:`~repro.core.pointer.Pointer`)
for O(1) lookup plus a bisect-maintained sorted id array for the one
order-dependent query the protocol makes, the failure-detection ring
successor — *"the node whose nodeId is just larger"* within the owner's
eigenstring group (§4.1, figure 3) — and for id-ordered iteration.

Costs, with n = ``len(peer_list)``:

* a multicast forward is one O(n) pass over the dict
  (:meth:`PeerList.audience_by_bit`), whatever the id width; the targets
  are deterministic because they are chosen by the total
  ``(level, id)`` key, not by iteration order;
* the ring successor is O(log n + gap): a bisect, then a walk over the
  ids between the owner and its next group member;
* add/remove are an O(1) dict update plus an O(n) array move (a
  ``memmove`` of machine words: cheap next to a tree at these sizes).

No per-bit or per-prefix index is stored, so writes pay nothing for the
reads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain
from typing import Dict, Iterator, List, Optional

from repro.core.audience import in_peer_list
from repro.core.errors import MembershipError, NodeIdError
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer


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
        self._by_id: dict[int, Pointer] = {}
        self._sorted_ids: List[int] = []

    # -- basic container ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id.value in self._by_id

    def __iter__(self) -> Iterator[Pointer]:
        """Pointers in ascending id order (deterministic)."""
        by_id = self._by_id
        return (by_id[v] for v in self._sorted_ids)

    def get(self, node_id: NodeId) -> Optional[Pointer]:
        return self._by_id.get(node_id.value)

    def ids(self) -> List[int]:
        """Sorted id values (snapshot copy)."""
        return list(self._sorted_ids)

    def add(self, pointer: Pointer, strict: bool = True) -> bool:
        """Insert or update a pointer.

        With ``strict`` (default) the pointer must belong in this peer list
        — share the owner's first ``owner_level`` bits — otherwise
        :class:`MembershipError` is raised; the protocol never legitimately
        stores out-of-prefix pointers.  Returns True if the entry is new.
        """
        if strict and not in_peer_list(self.owner_id, self.owner_level, pointer.node_id):
            raise MembershipError(
                f"pointer {pointer.node_id!r} outside owner prefix "
                f"(owner level {self.owner_level})"
            )
        value = pointer.node_id.value
        is_new = value not in self._by_id
        self._by_id[value] = pointer
        if is_new:
            insort(self._sorted_ids, value)
        return is_new

    def remove(self, node_id: NodeId) -> Optional[Pointer]:
        """Remove and return the pointer, or None if absent."""
        pointer = self._by_id.pop(node_id.value, None)
        if pointer is not None:
            idx = bisect_left(self._sorted_ids, node_id.value)
            # idx is exact: the value was present.
            self._sorted_ids.pop(idx)
        return pointer

    def clear(self) -> None:
        self._by_id.clear()
        self._sorted_ids.clear()

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
        evicted = [
            p
            for p in self._by_id.values()
            if not in_peer_list(self.owner_id, new_level, p.node_id)
        ]
        for p in evicted:
            self.remove(p.node_id)
        return evicted

    # -- ring / group queries ------------------------------------------------

    def group_members(self, level: Optional[int] = None) -> List[Pointer]:
        """Pointers in the owner's eigenstring group: same level as the
        owner (all peer-list entries already share the prefix)."""
        lvl = self.owner_level if level is None else level
        return [p for p in self if p.level == lvl]

    def ring_successor(self, of_id: NodeId) -> Optional[Pointer]:
        """The failure-detection target: the group member whose id is
        *just larger* than ``of_id``, wrapping around (§4.1).  Returns None
        when the group has no other member."""
        ids, by_id, level = self._sorted_ids, self._by_id, self.owner_level
        start = bisect_right(ids, of_id.value)
        for i in chain(range(start, len(ids)), range(start)):
            p = by_id[ids[i]]
            if p.level == level and ids[i] != of_id.value:
                return p
        return None

    # -- multicast candidate scan ---------------------------------------------

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
        candidates; steps with no candidate are absent.  The subject
        itself and the local node are excluded.
        """
        bits = local_id.bits
        if subject_id.bits != bits:
            raise NodeIdError("cannot compare ids of different widths")
        if start_bit < 0:
            raise NodeIdError(f"prefix length {start_bit} out of range")
        local_value, subject_value = local_id.value, subject_id.value
        by_bit: Dict[int, List[Pointer]] = {}
        for p in self._by_id.values():
            pid = p.node_id
            if pid.bits != bits:
                raise NodeIdError("cannot compare ids of different widths")
            value = pid.value
            if value == local_value or value == subject_value:
                continue
            if (value ^ subject_value) >> (bits - p.level):
                continue
            bit = bits - (value ^ local_value).bit_length()
            if bit >= start_bit:
                by_bit.setdefault(bit, []).append(p)
        return by_bit

    def multicast_candidates(
        self,
        local_id: NodeId,
        subject_id: NodeId,
        bit: int,
    ) -> List[Pointer]:
        """Candidates for the single multicast step ``bit`` (the redirect
        path's query; see :meth:`audience_by_bit`)."""
        return self.audience_by_bit(local_id, subject_id, bit).get(bit, [])

    def strongest(self, pointers: List[Pointer]) -> Optional[Pointer]:
        """The first pointer by :func:`strength`; None for an empty list."""
        return min(pointers, key=strength, default=None)
