"""Pointers: what one node knows about another.

§2: *"A pointer consists of the corresponding node's IP address, nodeId,
level, and a piece of attached info that can be specified by upper
applications."*

We additionally carry two timestamps used by the accuracy machinery
(§4.6): when the pointer's node was first seen joining (for lifetime
measurement) and when the pointer was last refreshed (for expiry).

A :class:`Pointer` is a **value**, never a live row.  It is what travels
in messages, what the top-node lists hold, and what
:class:`~repro.core.peerlist.PeerList` hands out — but a peer list
stores columns, copies a pointer's fields in on ``add`` and builds a
fresh pointer on every read, so mutating one changes no list.  To change
a stored entry, call ``PeerList.update``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.core.errors import NodeIdError
from repro.core.nodeid import NodeId, eigenstring


@dataclass(slots=True)
class Pointer:
    """One node's knowledge of another, as a value.

    ``address`` stands in for the IP address — it is the transport key of
    the node (any hashable).  ``attached_info`` is application data (§3).
    """

    node_id: NodeId
    address: Hashable
    level: int
    attached_info: Any = None
    #: Simulated time the node was observed joining (None if unknown, e.g.
    #: the pointer arrived via a bulk download rather than a join event).
    seen_join_time: Optional[float] = None
    #: Last time a state multicast about this node was received (§4.6).
    last_refresh: float = 0.0
    #: Monotone per-subject sequence number of the last applied event,
    #: guarding against out-of-order multicast application.
    last_event_seq: int = -1

    def __post_init__(self) -> None:
        if self.level < 0:
            raise NodeIdError("pointer level must be >= 0")
        if self.level > self.node_id.bits:
            raise NodeIdError(
                f"pointer level {self.level} exceeds id width {self.node_id.bits}"
            )

    @property
    def eigenstring(self) -> str:
        return eigenstring(self.node_id, self.level)

    def copy(self, **overrides: Any) -> "Pointer":
        """A validated copy, with ``overrides`` replacing the named fields
        (``TypeError`` for a name that is not a field)."""
        if not overrides:
            return Pointer(
                self.node_id,
                self.address,
                self.level,
                self.attached_info,
                self.seen_join_time,
                self.last_refresh,
                self.last_event_seq,
            )
        take = overrides.pop
        made = Pointer(
            take("node_id", self.node_id),
            take("address", self.address),
            take("level", self.level),
            take("attached_info", self.attached_info),
            take("seen_join_time", self.seen_join_time),
            take("last_refresh", self.last_refresh),
            take("last_event_seq", self.last_event_seq),
        )
        if overrides:
            raise TypeError(f"Pointer has no field(s) {sorted(overrides)}")
        return made

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pointer(id={self.node_id.bitstring() if self.node_id.bits <= 16 else hex(self.node_id.value)},"
            f" level={self.level}, addr={self.address!r})"
        )


_new = object.__new__


def pointer_from_row(
    node_id: NodeId,
    address: Hashable,
    level: int,
    attached_info: Any,
    seen_join_time: Optional[float],
    last_refresh: float,
    last_event_seq: int,
) -> Pointer:
    """A pointer from fields a :class:`~repro.core.peerlist.PeerList` row
    already validated when it was written: no second ``__post_init__``."""
    pointer = _new(Pointer)
    pointer.node_id = node_id
    pointer.address = address
    pointer.level = level
    pointer.attached_info = attached_info
    pointer.seen_join_time = seen_join_time
    pointer.last_refresh = last_refresh
    pointer.last_event_seq = last_event_seq
    return pointer
