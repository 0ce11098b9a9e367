"""Bandwidth metering.

Two meters are provided:

* :class:`BandwidthMeter` — cumulative bits and the lifetime rate; two
  floats, cheap enough to attach one (in + out) to every simulated node
  and bill on every message.
* :class:`EwmaRateMeter` — exponentially-weighted moving average of the
  bit rate; this is what the autonomic level controller (§2, §4.3) reads:
  *"its current bandwidth cost ... that is dynamically measured"*.
"""

from __future__ import annotations

import math

#: Seconds over which an endpoint's EWMA meter forgets (its ``tau``): the
#: window of "current bandwidth cost" the level controller reads.
EWMA_TAU = 120.0


class BandwidthMeter:
    """Cumulative bit accounting.

    ``record(now, bits)`` on every send/receive; ``total_bits`` is the
    running sum and ``lifetime_rate(now)`` its average since ``t0``.
    """

    __slots__ = ("total_bits", "t0")

    def __init__(self, t0: float = 0.0):
        self.total_bits = 0.0
        self.t0 = t0

    def record(self, now: float, bits: float) -> None:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self.total_bits += bits

    def lifetime_rate(self, now: float) -> float:
        """Bits per second averaged since construction."""
        elapsed = now - self.t0
        if elapsed <= 0:
            return 0.0
        return self.total_bits / elapsed


class EwmaRateMeter:
    """EWMA bit-rate estimate with continuous-time decay.

    The estimate decays as ``exp(-dt / tau)`` between samples; a burst of
    ``bits`` contributes ``bits / tau`` to the instantaneous rate.  With
    ``tau`` around tens of seconds this tracks "current bandwidth cost"
    the way a node would measure it online.
    """

    __slots__ = ("tau", "_rate", "_last_t")

    def __init__(self, tau: float = EWMA_TAU, t0: float = 0.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)
        self._rate = 0.0
        self._last_t = t0

    def record(self, now: float, bits: float) -> None:
        if bits < 0:
            raise ValueError("bits must be non-negative")
        self._decay(now)
        self._rate += bits / self.tau

    def _decay(self, now: float) -> None:
        dt = now - self._last_t
        if dt > 0:
            self._rate *= math.exp(-dt / self.tau)
            self._last_t = now

    def rate(self, now: float) -> float:
        self._decay(now)
        return self._rate
