"""Accuracy improvement: refresh and expiry (§4.6).

Errors in peer lists come in two kinds — *absent* pointers (a join
multicast that never arrived) and *stale* pointers (a leave that never
arrived).  Both are self-limiting individually, but accumulate system-wide,
so PeerWindow adds a refreshing mechanism:

* every node measures the lifetime of the nodes in its peer list and keeps
  a per-level average ``LT_i``;
* an ``l``-level node multicasts its own state every ``2 * LT_l``;
* an ``m``-level pointer that has not been refreshed for ``3 * LT_m`` is
  removed from the peer list without probing.

*"In practice, most nodes never perform such refreshing multicast because
their lifetimes are much shorter than twice the average lifetime"* — a
property the integration tests verify.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer


class LifetimeEstimator:
    """Running per-level mean of observed node lifetimes.

    A lifetime sample is taken when a LEAVE event (or failure detection)
    removes a pointer whose join was itself observed (``seen_join_time``
    is known) — exactly the information a real node has.
    """

    def __init__(self, prior_mean: float = 3600.0, prior_weight: float = 1.0):
        if prior_mean <= 0 or prior_weight < 0:
            raise ValueError("invalid prior")
        self.prior_mean = prior_mean
        self.prior_weight = prior_weight
        self._sum: Dict[int, float] = {}
        self._count: Dict[int, int] = {}

    def observe(self, level: int, lifetime: float) -> None:
        if lifetime < 0:
            raise ValueError("lifetime must be >= 0")
        self._sum[level] = self._sum.get(level, 0.0) + lifetime
        self._count[level] = self._count.get(level, 0) + 1

    def observe_departure(self, pointer: Pointer, now: float) -> None:
        """Take a sample from a departed pointer, if its join was observed."""
        if pointer.seen_join_time is not None:
            self.observe(pointer.level, now - pointer.seen_join_time)

    def mean(self, level: int) -> float:
        """``LT_level``: the posterior mean (prior keeps early estimates
        sane before samples accumulate)."""
        s = self._sum.get(level, 0.0) + self.prior_mean * self.prior_weight
        c = self._count.get(level, 0) + self.prior_weight
        return s / c

    def samples(self, level: int) -> int:
        return self._count.get(level, 0)


class RefreshManager:
    """Drives a node's refresh multicasts and pointer expiry sweeps."""

    def __init__(
        self,
        config: ProtocolConfig,
        estimator: Optional[LifetimeEstimator] = None,
    ):
        self.config = config
        self.estimator = estimator if estimator is not None else LifetimeEstimator()
        self.refreshes_sent = 0
        self.expired_removed = 0

    def refresh_due_interval(self, own_level: int) -> float:
        """Seconds between this node's own refresh multicasts: ``2 * LT_l``."""
        return self.config.refresh_multiple * self.estimator.mean(own_level)

    def expiry_age(self, pointer_level: int) -> float:
        """Maximum un-refreshed age for a pointer: ``3 * LT_m``."""
        return self.config.expiry_multiple * self.estimator.mean(pointer_level)

    def sweep(self, peer_list: PeerList, now: float) -> List[Pointer]:
        """Remove pointers whose refresh age exceeds ``3 * LT_m``.

        Returns the expired pointers.  (No probing happens — §4.6 removes
        them *"directly ... without explicit probing"*.)
        """
        expired = [
            peer_list.remove(node_id)
            for node_id in peer_list.unrefreshed(now, self.expiry_age)
        ]
        self.expired_removed += len(expired)
        return expired
