"""Node available-bandwidth distribution.

The common experiment (§5.1) requires: *"Distribution of nodes' available
bandwidth meets the measurement results of Gnutella (figure 3 of [13])."*
Discussing figure 5 the paper adds the anchor we can verify: *"only 20%
nodes' available bandwidth is less than 1 Mbps."*

We digitise the well-known access-technology mix behind Saroiu et al.'s
figure 3 into weighted categories, with log-uniform jitter inside each
category so the CDF is smooth rather than a staircase:

=================  ==========  =====================
category           weight      bandwidth range (bps)
=================  ==========  =====================
modem              5 %         33.6 k – 56 k
ISDN / slow DSL    7 %         64 k – 256 k
DSL                8 %         256 k – 1 M
cable              30 %        1 M – 3 M
fast cable / T1    30 %        3 M – 10 M
Ethernet           15 %        10 M – 100 M
campus / T3        5 %         100 M – 1 G
=================  ==========  =====================

Cumulative weight below 1 Mbps = 5 + 7 + 8 = 20 %, matching the paper's
anchor exactly (a test enforces it).

The experiment then derives each node's *user-set upper bandwidth
threshold* as ``max(0.01 * bandwidth, 500)`` bps (§5.1): 1 % of the node's
total bandwidth but never below 500 bps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

#: Paper §5.1: the threshold floor affordable "even for modem-linked nodes".
THRESHOLD_FLOOR_BPS = 500.0

#: Paper §5.1: threshold is 1% of the node's total bandwidth.
THRESHOLD_FRACTION = 0.01


@dataclass(frozen=True)
class BandwidthCategory:
    """One access-technology class of the digitised distribution."""

    name: str
    weight: float
    low_bps: float
    high_bps: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if not 0 < self.low_bps <= self.high_bps:
            raise ValueError("need 0 < low_bps <= high_bps")


GNUTELLA_CATEGORIES: List[BandwidthCategory] = [
    BandwidthCategory("modem", 0.05, 33_600, 56_000),
    BandwidthCategory("isdn-slow-dsl", 0.07, 64_000, 256_000),
    BandwidthCategory("dsl", 0.08, 256_000, 1_000_000),
    BandwidthCategory("cable", 0.30, 1_000_000, 3_000_000),
    BandwidthCategory("fast-cable-t1", 0.30, 3_000_000, 10_000_000),
    BandwidthCategory("ethernet", 0.15, 10_000_000, 100_000_000),
    BandwidthCategory("campus-t3", 0.05, 100_000_000, 1_000_000_000),
]


class GnutellaBandwidthDistribution:
    """Categorical-with-jitter model of Gnutella peers' available bandwidth."""

    def __init__(self, categories: Optional[Sequence[BandwidthCategory]] = None):
        cats = list(categories) if categories is not None else list(GNUTELLA_CATEGORIES)
        if not cats:
            raise ValueError("need at least one category")
        total = sum(c.weight for c in cats)
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.categories = cats
        self._probs = np.array([c.weight / total for c in cats])
        # ``Generator.choice(n, p=p)`` is a search of this table with one
        # uniform double per draw (``test_block_draws`` holds it to that).
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._log_low = np.log(np.array([c.low_bps for c in cats]))
        self._log_high = np.log(np.array([c.high_bps for c in cats]))

    def _from_uniforms(self, category_u: np.ndarray, jitter_u: np.ndarray) -> np.ndarray:
        idx = self._cdf.searchsorted(category_u, side="right")
        return np.exp(
            self._log_low[idx] + jitter_u * (self._log_high[idx] - self._log_low[idx])
        )

    def sample(self, rng: np.random.Generator, n: Optional[int] = None):
        """Sample available bandwidth in bps (scalar when ``n`` is None).

        Draw order with ``n``: all ``n`` category doubles, then all ``n``
        jitter doubles.  Without it: one :meth:`sample_each` draw (category,
        then jitter).  The two orders read the stream differently — ``n``
        scalar calls are ``sample_each(rng, n)``, not ``sample(rng, n)``.
        """
        if n is None:
            return float(self.sample_each(rng, 1)[0])
        size = int(n)
        if size < 0:
            raise ValueError("n must be non-negative")
        return self._from_uniforms(rng.random(size), rng.random(size))

    def sample_each(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """What ``k`` scalar ``sample(rng)`` calls return, in order, leaving
        ``rng`` where they would: ``2k`` doubles, category and jitter
        alternating."""
        u = rng.random(2 * k)
        return self._from_uniforms(u[0::2], u[1::2])

    def fraction_below(self, bps: float) -> float:
        """Exact model probability that a node's bandwidth is < ``bps``."""
        total = 0.0
        for cat, p in zip(self.categories, self._probs):
            if cat.high_bps <= bps:
                total += p
            elif cat.low_bps < bps:
                # log-uniform within the category
                frac = (np.log(bps) - np.log(cat.low_bps)) / (
                    np.log(cat.high_bps) - np.log(cat.low_bps)
                )
                total += p * float(frac)
        return total


def threshold_from_bandwidth(
    bandwidth_bps,
    fraction: float = THRESHOLD_FRACTION,
    floor_bps: float = THRESHOLD_FLOOR_BPS,
):
    """The user-set upper bandwidth threshold for node collection (§5.1):
    ``fraction`` of total bandwidth, floored at ``floor_bps``.  Vectorized."""
    if fraction <= 0 or floor_bps < 0:
        raise ValueError("fraction must be positive and floor non-negative")
    return np.maximum(np.asarray(bandwidth_bps) * fraction, floor_bps)
