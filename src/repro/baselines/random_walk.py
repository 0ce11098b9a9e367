"""Random-walk collection baseline (Mercury [1] style).

Mercury gathers remote-node information by launching random walks over a
small-world overlay and sampling the nodes the walk visits.  Collection
is *active*: every pointer costs a fresh walk step, and pointers decay
with churn, so holding ``p`` fresh pointers costs ``p / lifetime`` walk
messages per second — no multicast amortization.

:func:`small_world_graph` builds the Watts-Strogatz-style overlay (ring +
rewired shortcuts) with networkx; :class:`RandomWalkScheme` gives the
closed-form costs; :meth:`RandomWalkScheme.collect` actually runs walks
and reports the unique-node yield (duplicate visits waste steps, which is
the scheme's second inefficiency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

import numpy as np

from repro.baselines.common import CollectionScheme

if TYPE_CHECKING:
    import networkx as nx


def small_world_graph(n: int, k: int = 8, rewire_p: float = 0.2, seed: int = 0) -> nx.Graph:
    """A connected Watts-Strogatz small-world overlay."""
    if n < 3:
        raise ValueError("n must be >= 3")
    k = min(k, n - 1)
    if k % 2:
        k -= 1
    k = max(k, 2)
    # Here, not at module scope: the tournament imports this package for
    # its closed-form schemes and never builds an overlay graph.
    import networkx as nx

    return nx.connected_watts_strogatz_graph(n, k, rewire_p, tries=200, seed=seed)


class RandomWalkScheme(CollectionScheme):
    """Active collection by random walking."""

    name = "random-walk"
    heterogeneous = True
    autonomic = True

    def __init__(
        self,
        mean_lifetime_s: float = 3600.0,
        message_bits: float = 1000.0,
        steps_per_pointer: float = 1.5,
        target_staleness: float = 0.05,
    ):
        """``steps_per_pointer`` accounts for duplicate visits (measured by
        :meth:`collect`; ~1.2-2 for small-world graphs at modest coverage).

        ``target_staleness`` is the tolerated stale fraction of the
        collected set.  Walking is pull-based: the collector never learns
        of departures, so a pointer refreshed every ``T`` seconds is stale
        for about ``T / (2 L)`` of the time; holding staleness at ``ε``
        requires ``T = 2 ε L``.  (PeerWindow's push keeps staleness under
        0.5 % for free — the default 5 % here is already generous to the
        baseline.)
        """
        if min(mean_lifetime_s, message_bits, steps_per_pointer) <= 0:
            raise ValueError("parameters must be positive")
        if not 0.0 < target_staleness < 1.0:
            raise ValueError("target_staleness must be in (0, 1)")
        self.mean_lifetime_s = mean_lifetime_s
        self.message_bits = message_bits
        self.steps_per_pointer = steps_per_pointer
        self.target_staleness = target_staleness

    @property
    def refresh_period_s(self) -> float:
        return 2.0 * self.target_staleness * self.mean_lifetime_s

    def bandwidth_for_pointers(self, pointers: float) -> float:
        # Each pointer must be re-walked every refresh period at
        # steps_per_pointer messages a time.
        refresh_rate = pointers / self.refresh_period_s
        return refresh_rate * self.steps_per_pointer * self.message_bits

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        return (
            bandwidth_bps
            * self.refresh_period_s
            / (self.steps_per_pointer * self.message_bits)
        )

    def useful_message_fraction(self) -> float:
        return 1.0 / self.steps_per_pointer

    # -- executable walk ----------------------------------------------------

    def collect(
        self,
        graph: nx.Graph,
        start: int,
        steps: int,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        """Run one ``steps``-long random walk; returns the distinct nodes
        visited (excluding ``start``)."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        rng = rng if rng is not None else np.random.default_rng(0)
        seen: Set[int] = set()
        current = start
        for _ in range(steps):
            nbrs = list(graph.neighbors(current))
            if not nbrs:
                break
            current = nbrs[int(rng.integers(0, len(nbrs)))]
            if current != start:
                seen.add(current)
        return sorted(seen)

    def measured_steps_per_pointer(
        self,
        graph: nx.Graph,
        start: int,
        steps: int,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Empirical duplicate-visit overhead on a concrete graph."""
        unique = len(self.collect(graph, start, steps, rng))
        if unique == 0:
            return float("inf")
        return steps / unique
