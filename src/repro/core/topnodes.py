"""Top-node list maintenance (§2, §4.5).

Every node keeps a *top-node list* of ``t`` pointers (t = 8 by default) to
the top nodes of its part, used to report state-changing events.  The list
is maintained **lazily**: report acks piggyback ``t-1`` fresh top-node
pointers; unresponsive entries are dropped at use time; when the list
runs dry the node asks a peer for its list as a substitution.

A *top node's* own top-node list is different (§4.4): it holds pointers to
top nodes of **other parts**, ``t`` per part, keyed by the part prefix.
:class:`CrossPartTopList` implements that variant.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer


class TopNodeList:
    """A bounded list of pointers to the top nodes of the local part."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._pointers: Dict[int, Pointer] = {}

    def __len__(self) -> int:
        return len(self._pointers)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id.value in self._pointers

    def pointers(self) -> List[Pointer]:
        """Entries in ascending id order (deterministic)."""
        return [self._pointers[v] for v in sorted(self._pointers)]

    def merge(self, pointers: List[Pointer]) -> int:
        """Fold piggybacked pointers in, preferring the freshest entry per
        id and evicting the oldest-refreshed entries beyond capacity.
        Returns how many new ids were added.

        Entries are stored as copies: with an in-memory transport the
        pointers arriving here are often the objects another node's
        top-node list holds (a peer list hands out fresh values, this
        list keeps objects), and sharing one would couple two nodes'
        state outside the message fabric."""
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

    def remove(self, node_id: NodeId) -> Optional[Pointer]:
        return self._pointers.pop(node_id.value, None)

    def choose(self, rng: np.random.Generator) -> Optional[Pointer]:
        """A uniformly random entry (§4.1: reports go to *"a top node,
        randomly chosen from its top-node list"*)."""
        if not self._pointers:
            return None
        keys = sorted(self._pointers)
        return self._pointers[keys[int(rng.integers(0, len(keys)))]]

    def min_level(self) -> Optional[int]:
        """Smallest level value among entries (the part's top level as
        currently believed); None when empty."""
        if not self._pointers:
            return None
        return min(p.level for p in self._pointers.values())

    def clear(self) -> None:
        self._pointers.clear()


class CrossPartTopList:
    """A top node's map from *other* part prefixes to their top nodes.

    Keys are part-prefix bitstrings ('0'/'1' strings); each part keeps at
    most ``per_part`` pointers.
    """

    def __init__(self, per_part: int = 8):
        if per_part < 1:
            raise ValueError("per_part must be >= 1")
        self.per_part = per_part
        self._parts: Dict[str, TopNodeList] = {}

    def parts(self) -> List[str]:
        return sorted(self._parts)

    def merge(self, part_prefix: str, pointers: List[Pointer]) -> None:
        lst = self._parts.get(part_prefix)
        if lst is None:
            lst = TopNodeList(self.per_part)
            self._parts[part_prefix] = lst
        lst.merge(pointers)
        if len(lst) == 0:
            del self._parts[part_prefix]

    def for_part(self, part_prefix: str) -> List[Pointer]:
        lst = self._parts.get(part_prefix)
        return lst.pointers() if lst is not None else []

    def find_for_id(self, node_id: NodeId) -> List[Pointer]:
        """Top nodes of the part containing ``node_id``: the part whose
        prefix is a prefix of the id's bitstring."""
        bitstr = node_id.bitstring()
        for prefix in sorted(self._parts, key=len):
            if bitstr.startswith(prefix):
                return self._parts[prefix].pointers()
        return []

    def remove(self, node_id: NodeId) -> None:
        for prefix in list(self._parts):
            self._parts[prefix].remove(node_id)
            if len(self._parts[prefix]) == 0:
                del self._parts[prefix]
