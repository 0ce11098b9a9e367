"""Explicit-probing baseline: heartbeat every neighbor periodically.

The introduction's arithmetic, which this module reproduces exactly:
with average lifetime 2 hours and a 30-second probe period, a fraction
``1 - period/lifetime = 239/240 ≈ 99.58 %`` of probes return positively —
pure waste.  At 10 kbps with 500-bit heartbeats a node can maintain only
``10_000 * 30 / 500 = 600`` pointers.

This is the closed form; the executable form, whose failure-*detection
latency* can be set against PeerWindow's ring probing, is
:class:`repro.baselines.runtime.ExplicitProbeNetwork`.
"""

from __future__ import annotations

from repro.baselines.common import CollectionScheme


class ExplicitProbeScheme(CollectionScheme):
    """Closed-form cost model of all-neighbor heartbeating."""

    name = "explicit-probe"
    heterogeneous = True  # a node may probe fewer neighbors...
    autonomic = False  # ...but gets no event push, so lists stay tiny

    def __init__(
        self,
        probe_period_s: float = 30.0,
        heartbeat_bits: float = 500.0,
        mean_lifetime_s: float = 7200.0,
    ):
        if probe_period_s <= 0 or heartbeat_bits <= 0 or mean_lifetime_s <= 0:
            raise ValueError("all parameters must be positive")
        self.probe_period_s = probe_period_s
        self.heartbeat_bits = heartbeat_bits
        self.mean_lifetime_s = mean_lifetime_s

    def bandwidth_for_pointers(self, pointers: float) -> float:
        if pointers < 0:
            raise ValueError("pointers must be >= 0")
        return pointers * self.heartbeat_bits / self.probe_period_s

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        if bandwidth_bps < 0:
            raise ValueError("bandwidth must be >= 0")
        return bandwidth_bps * self.probe_period_s / self.heartbeat_bits

    def useful_message_fraction(self) -> float:
        """Probability a probe observes a state change: the probability the
        neighbor died within the last probe period."""
        return min(1.0, self.probe_period_s / self.mean_lifetime_s)
