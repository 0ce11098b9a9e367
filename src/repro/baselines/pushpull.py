"""Push–pull hybrid gossip baseline (the fifth contestant).

Classic anti-entropy literature (Demers et al.) shows that pairing a
lean push phase with periodic pull exchanges cuts push redundancy from
``O(ln n)``-ish to a small constant: the push only has to *seed* each
event somewhere, because pulls deterministically drain the difference
between any two views.  The price is a standing digest cost — every
member spends one heartbeat-sized pull request per :data:`PULL_INTERVAL`
forever, events or not — which the §2 cost model charges as a constant
bandwidth floor before any pointers are bought.

:class:`PushPullGossipScheme` is the closed-form column for the
comparison table; :class:`PushPullGossipNetwork` is the executable
tournament contestant: :class:`~repro.baselines.gossip.GossipNetwork`
with push fanout 1 plus a periodic symmetric pull that merges both
views, honoring death certificates so a buried peer cannot be gossiped
back to life.
"""

from __future__ import annotations

from repro.baselines.gossip import GossipMulticastScheme, GossipNetwork
from repro.baselines.runtime import BaselineMember, BaselineNetwork
from repro.obs import metrics as m

__all__ = ["PULL_INTERVAL", "PushPullGossipNetwork", "PushPullGossipScheme"]

#: Seconds between one member's anti-entropy pulls.
PULL_INTERVAL = 20.0


class PushPullGossipScheme(GossipMulticastScheme):
    """§2 cost model for push–pull: lower redundancy ``r`` than pure
    push, plus a constant anti-entropy digest overhead in bps."""

    name = "push-pull-gossip"
    redundancy = 2.0

    @property
    def pull_overhead_bps(self) -> float:
        """Standing anti-entropy cost, paid regardless of event rate."""
        return BaselineNetwork.config.heartbeat_bits / PULL_INTERVAL

    def _bandwidth(self, pointers: float) -> float:
        return super()._bandwidth(pointers) + self.pull_overhead_bps

    def _pointers(self, bandwidth_bps: float) -> float:
        return super()._pointers(max(0.0, bandwidth_bps - self.pull_overhead_bps))


class PushPullGossipNetwork(GossipNetwork):
    """Executable push–pull hybrid: push fanout 1 seeds each event, and
    every :data:`PULL_INTERVAL` each member anti-entropies with one random
    known peer (both directions merge, death certificates win ties)."""

    scheme = PushPullGossipScheme
    name = scheme.name
    error_hi = 0.25
    fanout = 1

    def _start_extra(self, member: BaselineMember) -> None:
        phase = float(member.rng.uniform(0.0, PULL_INTERVAL))
        member.tasks.append(
            self.sim.every(
                PULL_INTERVAL, self._pull_tick, member.key,
                start_delay=phase,
            )
        )

    def _pull_tick(self, key: int) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        pool = sorted(member.known)
        if not pool:
            return
        target = pool[int(member.rng.integers(0, len(pool)))]
        self._send("pull", self.config.heartbeat_bits)
        self.sim.schedule(self.hop_delay, self._pull_serve, key, target)

    def _pull_serve(self, requester_key: int, target_key: int) -> None:
        requester = self.nodes.get(requester_key)
        if requester is None or not requester.alive:
            return
        target = self.nodes.get(target_key)
        if target is None or not target.alive:
            # Pull into the void; the detector will bury the peer later.
            return
        now = self.sim.now
        moved = self._merge(requester, target) + self._merge(target, requester)
        self._send("pull", self.config.pointer_bits * float(max(1, moved)))
        reg = requester.obs.registry
        reg.inc(m.PULL_EXCHANGES)
        reg.inc(m.PULL_ENTRIES, moved)
        if requester.obs.enabled:
            requester.obs.instant("pull", now, peer=target_key, entries=moved)

    @staticmethod
    def _merge(dst: BaselineMember, src: BaselineMember) -> int:
        """Fold ``src``'s view into ``dst``: unknown live entries arrive
        with their source timestamps; death certificates newer than the
        destination's last sighting bury the peer.  Returns entries
        transferred."""
        moved = 0
        for key in sorted(src.known):
            if key == dst.key or key in dst.known:
                continue
            seen = src.known[key]
            buried = dst.dead.get(key)
            if buried is not None and buried >= seen:
                continue
            dst.dead.pop(key, None)
            dst.known[key] = seen
            moved += 1
        for key in sorted(src.dead):
            buried = src.dead[key]
            if key in dst.known and dst.known[key] < buried:
                dst.known.pop(key, None)
                dst.dead[key] = buried
                moved += 1
        return moved
