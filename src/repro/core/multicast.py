"""Tree-based multicast (§4.2, figure 4).

The dissemination is a binomial broadcast over nodeId bit positions,
restricted to the subject's audience set:

    at step ``s`` every informed node sends the event to another node
    whose nodeId has the same first ``s`` bits and a different
    ``(s+1)``-th bit, choosing **the target with the highest level**
    (smallest level value) among the possibilities, and skipping bit
    positions with no candidate.

Why highest-level-first makes the broadcast complete (the invariant our
property tests check): off the subject's prefix path every remaining
audience member already shares the forwarder's prefix, so it is in the
forwarder's peer list; on the prefix path, choosing the strongest
candidate guarantees the chosen relay's eigenstring is a prefix of every
remaining member's id, so the relay's peer list covers its whole
responsibility.  Consequently, with no failures each audience member
receives the event exactly once (redundancy r = 1) and the root's
out-degree is about ``log2 N``.

Reliability (§4.2): every multicast message is acknowledged; after
``multicast_attempts`` unanswered sends the stale pointer is removed from
the peer list and a new target is chosen for the same bit position.

This module has two layers:

* :func:`plan_tree` — the pure planner (no failures, no timing), used by
  tests, the worked figure examples, and the scalable engine's delay model;
* :class:`MulticastForwarder` — the runtime component a node embeds, doing
  the ack/retry/redirect dance over a real transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.events import EventRecord
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer


# ---------------------------------------------------------------------------
# Pure planner
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """One delivery in a planned multicast tree."""

    node_id: NodeId
    level: int
    depth: int  # tree depth (number of forwarding hops from the root)
    start_bit: int  # the bit position this node forwards from
    children: List["TreeNode"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def plan_tree(
    root_id: NodeId,
    root_level: int,
    subject_id: NodeId,
    members: Dict[int, Tuple[NodeId, int]],
    start_bit: int = 0,
) -> TreeNode:
    """Plan the failure-free multicast tree.

    ``members`` maps id value -> (NodeId, level) for every live node (the
    planner derives each relay's knowledge from the global membership — a
    relay at level l knows exactly the members sharing its first l bits,
    which is what a correct peer list contains).

    Returns the tree rooted at ``root_id``; every audience member of
    ``subject_id`` appears exactly once (verified by tests).
    """
    bits = subject_id.bits

    def knows(local: NodeId, local_level: int, other: NodeId) -> bool:
        return local.shares_prefix(other, local_level)

    def in_audience(nid: NodeId, lvl: int) -> bool:
        return nid.shares_prefix(subject_id, lvl)

    def build(local: NodeId, local_level: int, depth: int, s: int, pool: Dict[int, Tuple[NodeId, int]]) -> TreeNode:
        node = TreeNode(local, local_level, depth, s)
        pool.pop(local.value, None)
        for b in range(s, bits):
            candidates = [
                (nid, lvl)
                for nid, lvl in pool.values()
                if knows(local, local_level, nid)
                and nid.shares_prefix(local, b)
                and nid.bit(b) != local.bit(b)
            ]
            if not candidates:
                continue
            target_id, target_level = min(
                candidates, key=lambda c: (c[1], c[0].value)
            )
            child = build(target_id, target_level, depth + 1, b + 1, pool)
            node.children.append(child)
        return node

    pool = {
        v: (nid, lvl)
        for v, (nid, lvl) in members.items()
        if in_audience(nid, lvl) and nid.value != subject_id.value
    }
    return build(root_id, root_level, 0, start_bit, pool)


def tree_stats(root: TreeNode) -> Dict[str, float]:
    """Reach, max depth, and root out-degree of a planned tree."""
    nodes = list(root.walk())
    return {
        "reach": len(nodes),
        "max_depth": max(n.depth for n in nodes),
        "root_out_degree": len(root.children),
    }


# ---------------------------------------------------------------------------
# Runtime forwarder
# ---------------------------------------------------------------------------


class MulticastForwarder:
    """The per-node runtime half of the multicast protocol.

    The owner node calls :meth:`forward` when it originates or relays an
    event.  One pass over the owner's peer list files the audience under
    bit positions and picks the strongest of every position that has a
    candidate; the forwarder performs a reliable send to each:
    up to ``config.multicast_attempts`` tries, each with an ack timeout;
    exhaustion removes the pointer (*"turn back to line (3)"*) and redirects
    to a freshly chosen candidate for the same bit position.

    The forwarder is transport-agnostic: the owner injects ``send_fn``
    which must deliver ``(event, next_bit)`` to a target address and call
    back with success/failure.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        local_id: NodeId,
        peer_list: PeerList,
        send_fn: Callable[
            [Pointer, EventRecord, int, Callable[[bool], None], Optional[tuple]], None
        ],
        on_stale_pointer: Optional[Callable[[Pointer, Optional[tuple]], None]] = None,
        on_redirect: Optional[
            Callable[[Pointer, Pointer, int, Optional[tuple]], None]
        ] = None,
    ):
        self.config = config
        self.local_id = local_id
        self.peer_list = peer_list
        self._send_fn = send_fn
        self._on_stale = on_stale_pointer
        self._on_redirect = on_redirect
        # Statistics
        self.forwards = 0
        self.redirects = 0
        self.stale_removed = 0

    def forward(self, event: EventRecord, start_bit: int, trace=None) -> int:
        """Forward ``event`` for all bit positions from ``start_bit``, to
        the strongest candidate of each: every audience member receives
        one copy (the §2 model's ``r = 1``).  Returns the number of sends
        initiated (the out-degree).

        ``trace`` is the forwarding node's span context (a
        ``repro.obs.trace.SpanRef`` or ``None``), threaded through every
        send, stale-removal, and redirect so the owner can attribute them
        to the multicast's causal tree.  It never influences forwarding.
        """
        # Chosen before the first send: a send that fails at once edits
        # the list, and the choice is of this moment's rows.
        targets = self.peer_list.strongest_by_bit(self.local_id, event.subject_id, start_bit)
        excluded: set = set()
        for bit, target in targets:
            excluded.add(target.node_id.value)
            self._reliable_send(
                event, bit, target, self.config.multicast_attempts, excluded, trace
            )
        return len(targets)

    # -- internals -----------------------------------------------------------

    def _choose(self, event: EventRecord, bit: int, excluded: set) -> Optional[Pointer]:
        """The strongest not-yet-tried candidate for one bit position (the
        redirect after a stale removal)."""
        candidates = self.peer_list.multicast_candidates(
            self.local_id, event.subject_id, bit
        )
        return self.peer_list.strongest(
            [c for c in candidates if c.node_id.value not in excluded]
        )

    def _reliable_send(
        self,
        event: EventRecord,
        bit: int,
        target: Pointer,
        attempts_left: int,
        excluded: set,
        trace=None,
    ) -> None:
        self.forwards += 1

        def on_result(ok: bool) -> None:
            if ok:
                return
            if attempts_left > 1:
                self._reliable_send(
                    event, bit, target, attempts_left - 1, excluded, trace
                )
                return
            # Stale pointer: remove and redirect (§4.2).
            removed = self.peer_list.remove(target.node_id)
            excluded.add(target.node_id.value)
            if removed is not None:
                self.stale_removed += 1
                if self._on_stale is not None:
                    self._on_stale(removed, trace)
            replacement = self._choose(event, bit, excluded)
            if replacement is not None:
                self.redirects += 1
                if self._on_redirect is not None:
                    self._on_redirect(target, replacement, bit, trace)
                self._reliable_send(
                    event, bit, replacement, self.config.multicast_attempts,
                    excluded, trace,
                )

        self._send_fn(target, event, bit + 1, on_result, trace)
