"""Simple latency models for tests and baselines.

The headline experiments use the transit-stub model
(:mod:`repro.net.transit_stub`); these lightweight alternatives keep unit
tests fast and give baselines a topology-independent footing.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable

from repro.net.topology import Topology


class UniformLatencyModel(Topology):
    """Every pair of distinct nodes is ``latency`` seconds apart."""

    def __init__(self, latency: float = 0.05, loopback: float = 0.0):
        if not (latency >= 0 and loopback >= 0):  # NaN fails both
            raise ValueError(f"latencies must be non-negative, got {latency!r} / {loopback!r}")
        self.base = float(latency)
        self.loopback = float(loopback)
        self._attached: Dict[Hashable, None] = {}

    def attach(self, key: Hashable) -> None:
        self._attached[key] = None

    def detach(self, key: Hashable) -> None:
        self._attached.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._attached

    def latency(self, a: Hashable, b: Hashable) -> float:
        if a not in self._attached or b not in self._attached:
            raise KeyError(f"latency query for unattached key: {a!r} or {b!r}")
        return self.loopback if a == b else self.base

    def pair_latency(self, a: Hashable, b: Hashable) -> float:
        return self.loopback if a == b else self.base

    def min_latency(self) -> float:
        return self.base


class PairwiseLatencyModel(Topology):
    """Deterministic, *distinct* per-pair latencies from a stable hash.

    ``latency(a, b) = base + spread * h(a, b)`` where ``h`` maps the
    unordered pair into ``[0, 1)`` via CRC-32 — a pure function of the two
    keys, identical across runs, machines, and threads, and requiring no
    attachment state.  Two properties make this the model of choice for
    partitioned execution:

    * every latency is ``>= base``, so ``base`` is a valid conservative
      lookahead;
    * distinct pairs almost always get distinct delays, which removes the
      simultaneous-delivery ties that make sequential and partitioned
      event orders diverge on uniform-latency topologies.
    """

    def __init__(self, base: float = 0.05, spread: float = 0.02, loopback: float = 0.0):
        if not (base > 0 and spread >= 0 and loopback >= 0):  # NaN fails all three
            raise ValueError(
                "latencies must be positive (base) / non-negative, got "
                f"{base!r} / {spread!r} / {loopback!r}"
            )
        self.base = float(base)
        self.spread = float(spread)
        self.loopback = float(loopback)
        #: attached key -> ``repr(key)``, the text the pair hash is taken
        #: over (formatted once per key, not three times per message).
        self._attached: Dict[Hashable, str] = {}

    def attach(self, key: Hashable) -> None:
        self._attached[key] = repr(key)

    def detach(self, key: Hashable) -> None:
        self._attached.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._attached

    def pair_latency(self, a: Hashable, b: Hashable) -> float:
        if a == b:
            return self.loopback
        return self._hashed(repr(a), repr(b))

    def _hashed(self, ra: str, rb: str) -> float:
        """The latency of the unordered pair whose keys print as ``ra``
        and ``rb``: CRC-32 over ``repr((lo, hi))``."""
        text = f"({ra}, {rb})" if ra <= rb else f"({rb}, {ra})"
        return self.base + self.spread * ((zlib.crc32(text.encode("utf-8")) % 9973) / 9973.0)

    def latency(self, a: Hashable, b: Hashable) -> float:
        attached = self._attached
        try:
            ra, rb = attached[a], attached[b]
        except KeyError:
            raise KeyError(f"latency query for unattached key: {a!r} or {b!r}") from None
        if a == b:
            return self.loopback
        return self._hashed(ra, rb)

    def min_latency(self) -> float:
        return self.base
