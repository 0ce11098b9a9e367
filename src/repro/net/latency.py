"""Simple latency models for tests and baselines.

The headline experiments use the transit-stub model
(:mod:`repro.net.transit_stub`); these lightweight alternatives keep unit
tests fast and give baselines a topology-independent footing.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Optional

import numpy as np

from repro.net.topology import Topology


class UniformLatencyModel(Topology):
    """Every pair of distinct nodes is ``latency`` seconds apart.

    Optionally jittered: with ``jitter > 0`` each *pair* gets a stable
    multiplicative factor drawn from ``U[1-jitter, 1+jitter]`` — stable so
    that repeated queries for the same pair agree (triangle inequality is
    not guaranteed, matching real internet measurements).
    """

    def __init__(
        self,
        latency: float = 0.05,
        loopback: float = 0.0,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if latency < 0 or loopback < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.base = float(latency)
        self.loopback = float(loopback)
        self.jitter = float(jitter)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._attached: Dict[Hashable, None] = {}
        self._pair_factor: Dict[tuple, float] = {}

    def attach(self, key: Hashable) -> None:
        self._attached[key] = None

    def detach(self, key: Hashable) -> None:
        self._attached.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._attached

    def latency(self, a: Hashable, b: Hashable) -> float:
        if a not in self._attached or b not in self._attached:
            raise KeyError(f"latency query for unattached key: {a!r} or {b!r}")
        if a == b:
            return self.loopback
        if self.jitter == 0.0:
            return self.base
        pair = (a, b) if repr(a) <= repr(b) else (b, a)
        factor = self._pair_factor.get(pair)
        if factor is None:
            factor = float(self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))
            self._pair_factor[pair] = factor
        return self.base * factor

    def pair_latency(self, a: Hashable, b: Hashable) -> float:
        if self.jitter != 0.0:
            # Jittered factors are drawn lazily in query order — not a pure
            # pair function, so not partition-safe.
            raise NotImplementedError(
                "UniformLatencyModel with jitter has no pure pairwise latency"
            )
        return self.loopback if a == b else self.base

    def min_latency(self) -> float:
        if self.jitter != 0.0:
            return self.base * (1.0 - self.jitter)
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
        if base <= 0 or spread < 0 or loopback < 0:
            raise ValueError("latencies must be positive (base) / non-negative")
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
