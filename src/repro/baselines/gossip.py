"""Gossip-multicast baseline (the §2 alternative design).

§2 sketches a gossip alternative to the tree multicast: *"the top node
first initiates a gossip around all the top nodes, and then sends the
event message to a level-1 node; L1 then initiates a gossip around all the
level-1 nodes ..."*.  Push gossip delivers with redundancy ``r`` well
above 1 (each node receives a given event ``fanout / ln(fanout-ish)``
times in expectation for reliable coverage), which divides the pointers-
per-bps efficiency by ``r`` in the §2 cost model.

:class:`GossipMulticastScheme` is the closed form used in the comparison
table; :class:`GossipNetwork` is the executable form, with reach and
redundancy measured rather than assumed.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.baselines.common import CollectionScheme
from repro.baselines.runtime import BaselineMember, BaselineNetwork
from repro.core.analytic import CostModel
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan

__all__ = ["GossipMulticastScheme", "GossipNetwork", "rounds_ttl"]


def rounds_ttl(n_nodes: int) -> int:
    """Gossip rounds an event lives in an ``n_nodes`` network: ``2·ln n``."""
    return max(2, int(math.ceil(2.0 * math.log(max(2, n_nodes)))))


class GossipMulticastScheme(CollectionScheme):
    """§2 cost model with gossip redundancy ``r > 1``."""

    name = "gossip"
    heterogeneous = True
    autonomic = True
    #: ``r``: copies of an event a member receives for reliable coverage.
    redundancy = 4.0

    def __init__(self, mean_lifetime_s: float = 3600.0):
        super().__init__(mean_lifetime_s)
        self.model = CostModel(
            mean_lifetime_s=mean_lifetime_s,
            redundancy=self.redundancy,
            message_bits=BaselineNetwork.config.event_message_bits,
        )

    def _bandwidth(self, pointers: float) -> float:
        return self.model.bandwidth_for_pointers(pointers)

    def _pointers(self, bandwidth_bps: float) -> float:
        return self.model.pointers_for_bandwidth(bandwidth_bps)

    def useful_message_fraction(self) -> float:
        """Only the first copy of an event updates state."""
        return 1.0 / self.redundancy


class GossipNetwork(BaselineNetwork):
    """Flat push gossip (the §2 alternative): every membership event is
    rumor-mongered with fanout ``F`` and a :func:`rounds_ttl` round TTL.

    Joins and detected deaths originate a ``mcast.root`` span; each
    receipt is a ``mcast.hop`` with its gossip round as ``depth`` and
    the sender's span as parent, so the telemetry pipeline reconstructs
    gossip "trees" exactly as it does PeerWindow multicasts — complete
    with the duplicate deliveries that make gossip pay redundancy ``r``.
    """

    scheme = GossipMulticastScheme
    name = scheme.name
    error_hi = 0.25
    fanout = 3

    def _on_death_detected(self, member, subject, parent):
        self._originate(member, "leave", subject, parent)

    def _announce_join(self, member, bootstrap, parent):
        boot = self.nodes.get(bootstrap)
        if boot is not None and boot.alive:
            self._originate(boot, "join", member.key, parent)

    def _gossip_targets(self, member: BaselineMember, exclude: int) -> List[int]:
        pool = [k for k in sorted(member.known) if k != exclude]
        if not pool:
            return []
        count = min(self.fanout, len(pool))
        idx = member.rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in sorted(int(j) for j in idx)]

    def _originate(
        self,
        member: BaselineMember,
        kind: str,
        subject: int,
        parent: Optional[OpenSpan],
    ) -> None:
        event = self._event_id(kind, subject)
        member.seen.add(event)
        targets = self._gossip_targets(member, exclude=subject)
        ref = self._root(member, kind, subject, parent, targets)
        self._multicast(targets, event, kind, subject, 1, ref)

    def _deliver(
        self,
        key: int,
        event: str,
        kind: str,
        subject: int,
        depth: int,
        ref,
    ) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        now = self.sim.now
        reg = member.obs.registry
        reg.inc(m.MCAST_RECEIVED)
        span = None
        if member.obs.enabled:
            span = member.obs.start(
                "mcast.hop", now, parent=ref,
                kind=kind.upper(), subject=subject, depth=depth,
            )
        if event in member.seen:
            reg.inc(m.MCAST_DUPLICATES)
            if span is not None:
                member.obs.end(span, now, status="duplicate")
            return
        member.seen.add(event)
        reg.observe(m.MCAST_DEPTH, float(depth))
        self._apply_event(member, kind, subject)
        if depth < rounds_ttl(len(self.nodes)):
            targets = self._gossip_targets(member, exclude=subject)
            reg.observe(m.MCAST_FANOUT, float(len(targets)))
            if span is not None:
                span.attrs["fanout"] = len(targets)
            next_ref = span.ref(depth + 1) if span is not None else None
            self._multicast(targets, event, kind, subject, depth + 1, next_ref)
        if span is not None:
            member.obs.end(span, now)
