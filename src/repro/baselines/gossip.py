"""Gossip-multicast baseline (the §2 alternative design).

§2 sketches a gossip alternative to the tree multicast: *"the top node
first initiates a gossip around all the top nodes, and then sends the
event message to a level-1 node; L1 then initiates a gossip around all the
level-1 nodes ..."*.  Push gossip delivers with redundancy ``r`` well
above 1 (each node receives a given event ``fanout / ln(fanout-ish)``
times in expectation for reliable coverage), which divides the pointers-
per-bps efficiency by ``r`` in the §2 cost model.

:class:`GossipMulticastScheme` is the closed form used in the comparison
table; the executable form, with reach and redundancy measured rather than
assumed, is :class:`repro.baselines.runtime.GossipNetwork`.
"""

from __future__ import annotations

from repro.baselines.common import CollectionScheme


class GossipMulticastScheme(CollectionScheme):
    """§2 cost model with gossip redundancy ``r > 1``."""

    name = "gossip-multicast"
    heterogeneous = True
    autonomic = True

    def __init__(
        self,
        mean_lifetime_s: float = 3600.0,
        changes_per_lifetime: float = 3.0,
        message_bits: float = 1000.0,
        redundancy: float = 4.0,
    ):
        if min(mean_lifetime_s, changes_per_lifetime, message_bits, redundancy) <= 0:
            raise ValueError("all parameters must be positive")
        self.mean_lifetime_s = mean_lifetime_s
        self.changes_per_lifetime = changes_per_lifetime
        self.message_bits = message_bits
        self.redundancy = redundancy

    def bandwidth_for_pointers(self, pointers: float) -> float:
        return (
            pointers
            * self.changes_per_lifetime
            * self.redundancy
            * self.message_bits
            / self.mean_lifetime_s
        )

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        return (
            bandwidth_bps
            * self.mean_lifetime_s
            / (self.changes_per_lifetime * self.redundancy * self.message_bits)
        )

    def useful_message_fraction(self) -> float:
        """Only the first copy of an event updates state."""
        return 1.0 / self.redundancy
