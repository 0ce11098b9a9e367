"""Explicit-probing baseline: heartbeat every neighbor periodically.

The introduction's arithmetic, which this module reproduces exactly:
with average lifetime 2 hours and a 30-second probe period, a fraction
``1 - period/lifetime = 239/240 ≈ 99.58 %`` of probes return positively —
pure waste.  At 10 kbps with 500-bit heartbeats a node can maintain only
``10_000 * 30 / 500 = 600`` pointers.

:class:`ExplicitProbeScheme` is the closed form, reading the probe period
and heartbeat size off the configuration :class:`ExplicitProbeNetwork`
runs with; the network's failure-*detection latency* can be set against
PeerWindow's ring probing.
"""

from __future__ import annotations

from typing import List

from repro.baselines.common import CollectionScheme
from repro.baselines.runtime import BaselineMember, BaselineNetwork

__all__ = ["ExplicitProbeNetwork", "ExplicitProbeScheme"]


class ExplicitProbeScheme(CollectionScheme):
    """Closed-form cost model of all-neighbor heartbeating."""

    name = "explicit-probe"
    heterogeneous = True  # a node may probe fewer neighbors...
    autonomic = False  # ...but gets no event push, so lists stay tiny
    probe_period_s = BaselineNetwork.config.probe_interval
    heartbeat_bits = BaselineNetwork.config.heartbeat_bits

    def __init__(self, mean_lifetime_s: float = 7200.0):
        super().__init__(mean_lifetime_s)

    def _bandwidth(self, pointers: float) -> float:
        return pointers * self.heartbeat_bits / self.probe_period_s

    def _pointers(self, bandwidth_bps: float) -> float:
        return bandwidth_bps * self.probe_period_s / self.heartbeat_bits

    def useful_message_fraction(self) -> float:
        """Probability a probe observes a state change: the probability the
        neighbor died within the last probe period."""
        return min(1.0, self.probe_period_s / self.mean_lifetime_s)


class ExplicitProbeNetwork(BaselineNetwork):
    """The intro's strawman: heartbeat *every* known peer, every period.

    Deaths are detected quickly (by everyone, independently) but nothing
    else ever propagates — a joiner is known only to its bootstrap — and
    nearly every probe returns positively, which is the 99.58 %-waste
    arithmetic of the paper's introduction made executable.
    """

    scheme = ExplicitProbeScheme
    name = scheme.name
    error_hi = 0.6

    def _probe_targets(self, member: BaselineMember) -> List[int]:
        return sorted(member.known)
