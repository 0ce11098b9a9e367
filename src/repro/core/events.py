"""State-changing events and their application to peer lists.

§2: *"a state-changing event, e.g., a node's joining, leaving or
information changing, will be multicast to all the nodes ... whose peer
list contains (or should contain) a pointer to the changing node."*

Events carry a per-subject monotone sequence number so receivers can
discard out-of-order deliveries (the Internet-asynchrony caveat of §4.6);
REFRESH events (§4.6) re-announce the subject's current state and also
bump the pointer's ``last_refresh`` clock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.core.audience import in_peer_list
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import MAX_SEQ, Pointer


class EventKind(enum.Enum):
    JOIN = "join"
    LEAVE = "leave"
    LEVEL_CHANGE = "level_change"
    INFO_CHANGE = "info_change"
    REFRESH = "refresh"


@dataclass(frozen=True)
class EventRecord:
    """One state-changing event about ``subject_id``."""

    kind: EventKind
    subject_id: NodeId
    subject_level: int
    subject_address: Hashable
    seq: int
    origin_time: float
    attached_info: Any = None

    def __post_init__(self) -> None:
        if not 0 <= self.seq <= MAX_SEQ:
            raise ValueError(f"event seq {self.seq} outside [0, {MAX_SEQ}]")
        if self.subject_level < 0 or self.subject_level > self.subject_id.bits:
            raise ValueError("invalid subject level")


def obituary_seq(last_event_seq: int) -> int:
    """The seq of the LEAVE a node announces for a pointer it judged dead:
    one past the pointer's, so it outruns every event applied to it —
    saturating at :data:`~repro.core.pointer.MAX_SEQ`, so a pointer that
    arrived at the bound still yields an event."""
    return min(last_event_seq + 1, MAX_SEQ)


def apply_event(
    peer_list: PeerList,
    event: EventRecord,
    now: float,
    owner_id: Optional[NodeId] = None,
) -> bool:
    """Apply ``event`` to ``peer_list``; returns True if state changed.

    Rules:

    * events about nodes outside the owner's prefix are ignored (they can
      reach us transiently during our own level shift);
    * events older than the pointer's ``last_event_seq`` are ignored;
      **note** that a LEAVE removes the pointer and with it this sequence
      memory, so a *later-delivered older* event (a stale JOIN racing the
      LEAVE) would resurrect the entry — callers must keep their own
      per-subject max-seq filter, as :class:`~repro.core.node.PeerWindowNode`
      does with its ``_seen_events`` map (the tombstone is held there,
      bounded by the node's own lifetime);
    * JOIN / LEVEL_CHANGE / INFO_CHANGE / REFRESH upsert the pointer with
      the event's level and info, stamping ``last_refresh = now``;
    * LEAVE removes the pointer;
    * events about the owner itself are ignored (a node is authoritative
      about its own state).
    """
    subject = event.subject_id
    if owner_id is not None and subject.value == owner_id.value:
        return False
    if not in_peer_list(peer_list.owner_id, peer_list.owner_level, subject):
        return False
    existing = peer_list.get(subject)
    if existing is not None and event.seq <= existing.last_event_seq:
        return False

    if event.kind is EventKind.LEAVE:
        if existing is None:
            return False
        peer_list.remove(subject)
        return True

    if existing is None:
        pointer = Pointer(
            node_id=subject,
            address=event.subject_address,
            level=event.subject_level,
            attached_info=event.attached_info,
            seen_join_time=(now if event.kind is EventKind.JOIN else None),
            last_refresh=now,
            last_event_seq=event.seq,
        )
        peer_list.add(pointer)
        return True

    joined = existing.seen_join_time
    if event.kind is EventKind.JOIN and joined is None:
        joined = now
    peer_list.update(
        subject,
        level=event.subject_level,
        attached_info=event.attached_info,
        seen_join_time=joined,
        last_refresh=now,
        last_event_seq=event.seq,
    )
    return True
