"""Random-walk collection baseline (Mercury [1] style).

Mercury gathers remote-node information by launching random walks over a
small-world overlay and sampling the nodes the walk visits.  Collection
is *active*: every pointer costs a fresh walk step, and pointers decay
with churn, so holding ``p`` fresh pointers costs ``p / lifetime`` walk
messages per second — no multicast amortization.

:class:`RandomWalkScheme` gives the closed-form costs;
:class:`RandomWalkNetwork` is the executable form, where duplicate visits
waste measured steps (the scheme's second inefficiency).
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.common import CollectionScheme
from repro.baselines.gossip import rounds_ttl
from repro.baselines.runtime import BaselineMember, BaselineNetwork
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan

__all__ = ["RandomWalkNetwork", "RandomWalkScheme"]


class RandomWalkScheme(CollectionScheme):
    """Active collection by random walking."""

    name = "random-walk"
    heterogeneous = True
    autonomic = True
    #: Walk steps per pointer collected: duplicate visits cost ~1.2-2 steps
    #: on small-world graphs at modest coverage.
    steps_per_pointer = 1.5
    #: ε, the tolerated stale fraction of the collected set.  Walking is
    #: pull-based: the collector never learns of departures, so a pointer
    #: refreshed every ``T`` seconds is stale for about ``T / (2 L)`` of the
    #: time, and holding staleness at ``ε`` requires ``T = 2 ε L``.
    #: (PeerWindow's push keeps staleness under 0.5 % for free — 5 % is
    #: already generous to the baseline.)
    target_staleness = 0.05

    @property
    def refresh_period_s(self) -> float:
        return 2.0 * self.target_staleness * self.mean_lifetime_s

    @property
    def bits_per_pointer(self) -> float:
        """One re-walk: ``steps_per_pointer`` event-message-sized steps."""
        return self.steps_per_pointer * BaselineNetwork.config.event_message_bits

    def _bandwidth(self, pointers: float) -> float:
        # Each pointer must be re-walked every refresh period.
        return pointers / self.refresh_period_s * self.bits_per_pointer

    def _pointers(self, bandwidth_bps: float) -> float:
        return bandwidth_bps * self.refresh_period_s / self.bits_per_pointer

    def useful_message_fraction(self) -> float:
        return 1.0 / self.steps_per_pointer


class RandomWalkNetwork(BaselineNetwork):
    """Mercury-style random-walk collection over a small-world overlay.

    Collection is *pull*: every ``walk_interval`` each member launches a
    walk over the static ring+shortcut graph, refreshing its pointers to
    the nodes the walk visits (and introducing itself to them).  Entries
    not re-seen within ``entry_ttl`` expire — the ε·L refresh-period
    staleness tradeoff of the paper's random-walk column.  Membership
    events never propagate; only walking (or the base detector probing a
    dead pointer) repairs state, so error rates sit well above the
    push-based schemes.
    """

    scheme = RandomWalkScheme
    name = scheme.name
    error_hi = 0.75
    walk_interval = 30.0
    neighbor_count = 4
    entry_ttl = 90.0

    def _wire(self, keys: List[int]) -> None:
        ring = sorted(keys)
        n = len(ring)
        graph_rng = self.streams.get("baseline-graph")
        for i, key in enumerate(ring):
            member = self.nodes[key]
            member.neighbors = [ring[(i - 1) % n], ring[(i + 1) % n]]
            extra = self.neighbor_count - 2
            pool = [k for k in ring if k != key]
            if extra > 0 and pool:
                idx = graph_rng.choice(
                    len(pool), size=min(extra, len(pool)), replace=False
                )
                for j in sorted(int(x) for x in idx):
                    member.neighbors.append(pool[j])

    def _start_extra(self, member: BaselineMember) -> None:
        phase = float(member.rng.uniform(0.0, self.walk_interval))
        member.tasks.append(
            self.sim.every(
                self.walk_interval, self._launch_walk, member.key,
                start_delay=phase,
            )
        )

    def _announce_join(self, member, bootstrap, parent):
        live = [k for k in self.live_keys() if k != member.key]
        count = min(self.neighbor_count, len(live))
        if count:
            idx = member.rng.choice(len(live), size=count, replace=False)
            for i in sorted(int(j) for j in idx):
                peer = live[i]
                member.neighbors.append(peer)
                self.nodes[peer].neighbors.append(member.key)

    def _launch_walk(self, key: int) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        member.obs.registry.inc(m.WALKS_LAUNCHED)
        span = None
        if member.obs.enabled:
            span = member.obs.start("walk", self.sim.now, steps=0)
        self._walk_step(key, key, 0, span)

    def _walk_step(
        self, origin_key: int, at_key: int, steps: int, span: Optional[OpenSpan]
    ) -> None:
        now = self.sim.now
        origin = self.nodes.get(origin_key)
        if origin is None or not origin.alive:
            if span is not None:
                self.obs.view(origin_key).end(span, now, status="died")
            return
        # A walk lasts as many hops as a gossip event lives rounds, >= 4.
        if steps >= max(4, rounds_ttl(len(self.nodes))):
            self._finish_walk(origin, steps, span)
            return
        at = self.nodes.get(at_key)
        hops = [] if at is None else [k for k in at.neighbors if k in self.nodes]
        pool = sorted(set(hops) - {origin_key})
        if not pool:
            self._finish_walk(origin, steps, span)
            return
        nxt = pool[int(origin.rng.integers(0, len(pool)))]
        self._send("walk", self.config.pointer_bits)
        target = self.nodes.get(nxt)
        if target is None or not target.alive:
            # A dead pointer stalls the walk for a timeout, then the
            # walker repairs: the graph edge and the stale entry go.
            if at is not None:
                at.neighbors = [k for k in at.neighbors if k != nxt]
            if nxt in origin.known:
                self._forget(origin, nxt, via="walk", parent=span)
            self.sim.schedule(
                self.config.probe_timeout,
                self._walk_step, origin_key, at_key, steps + 1, span,
            )
            return
        origin.known[nxt] = now
        origin.dead.pop(nxt, None)
        target.known[origin_key] = now
        target.dead.pop(origin_key, None)
        self.sim.schedule(
            self.hop_delay, self._walk_step, origin_key, nxt, steps + 1, span
        )

    def _finish_walk(
        self, origin: BaselineMember, steps: int, span: Optional[OpenSpan]
    ) -> None:
        now = self.sim.now
        origin.obs.registry.observe(m.WALK_STEPS, float(steps))
        if span is not None:
            span.attrs["steps"] = steps
            origin.obs.end(span, now)
        cutoff = now - self.entry_ttl
        for key in [k for k in sorted(origin.known) if origin.known[k] < cutoff]:
            origin.known.pop(key)
