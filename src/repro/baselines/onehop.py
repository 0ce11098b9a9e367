"""One-hop DHT baseline [7] (Gupta, Liskov, Rodrigues — HotOS IX).

Every node keeps the complete membership (the level-0 PeerWindow state,
for everyone).  §6's critique, which the model captures: *"one-hop DHT
treats almost all the nodes as homogeneous peers and costs too much for
weak nodes when the system is very large and dynamic."*

The maintenance cost per node is the full event stream of the system —
the §2 cost of holding all ``N`` pointers at ``r = 1`` — independent of
the node's capacity, so a modem node drowns once ``N`` passes a few tens
of thousands (the bench sweeps exactly that crossover against
PeerWindow).  :class:`OneHopNetwork` runs it: a leader broadcasts every
event to every member once.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.common import CollectionScheme
from repro.baselines.runtime import BaselineMember, BaselineNetwork
from repro.core.analytic import CostModel
from repro.core.errors import ConfigError
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan

__all__ = ["OneHopDHTScheme", "OneHopNetwork"]


class OneHopDHTScheme(CollectionScheme):
    """Full-membership maintenance, homogeneous across nodes."""

    name = "onehop"
    heterogeneous = False
    autonomic = False

    def __init__(self, n_nodes: float, mean_lifetime_s: float = 3600.0):
        if not n_nodes >= 1:
            raise ConfigError(f"n_nodes must be >= 1, got {n_nodes!r}")
        super().__init__(mean_lifetime_s)
        self.n_nodes = float(n_nodes)
        self.model = CostModel(
            mean_lifetime_s=mean_lifetime_s,
            message_bits=BaselineNetwork.config.event_message_bits,
        )

    @classmethod
    def for_system(cls, n_nodes: float, mean_lifetime_s: float) -> "OneHopDHTScheme":
        return cls(n_nodes, mean_lifetime_s)

    def per_node_cost_bps(self) -> float:
        """Every node pays for the full event stream, capacity regardless."""
        return self.model.bandwidth_for_pointers(self.n_nodes)

    def _bandwidth(self, pointers: float) -> float:
        """The scheme cannot scale its list down: any participation costs
        the full-membership rate (that *is* the §6 critique)."""
        return self.per_node_cost_bps() if pointers > 0 else 0.0

    def _pointers(self, bandwidth_bps: float) -> float:
        """All of N if the node can afford the stream; nothing otherwise."""
        return self.n_nodes if bandwidth_bps >= self.per_node_cost_bps() else 0.0

    def useful_message_fraction(self) -> float:
        """The leader's broadcast reaches each member once."""
        return 1.0


class OneHopNetwork(BaselineNetwork):
    """One-hop DHT [7]: full membership everywhere, homogeneously.

    A leader (the lowest live key) serializes membership events and
    broadcasts each to every member — a depth-1 ``n``-way star per
    event, which is exactly the per-event cost the paper's onehop column
    models.  Detectors report deaths to the leader; the leader dedups by
    (kind, subject) so one death yields one broadcast.
    """

    scheme = OneHopDHTScheme
    name = scheme.name
    error_hi = 0.15

    def _leader_key(self, member: BaselineMember) -> int:
        return min(member.known.keys() | {member.key})

    def _on_death_detected(self, member, subject, parent):
        self._report(member, "leave", subject, parent)

    def _announce_join(self, member, bootstrap, parent):
        boot = self.nodes.get(bootstrap)
        if boot is not None and boot.alive:
            self._report(boot, "join", member.key, parent)

    def _report(
        self,
        member: BaselineMember,
        kind: str,
        subject: int,
        parent: Optional[OpenSpan],
    ) -> None:
        leader = self._leader_key(member)
        member.obs.registry.inc(m.REPORT_SENT)
        if leader == member.key:
            self.sim.schedule(0.0, self._broadcast, leader, kind, subject, parent)
        else:
            self._send("report", self.config.event_message_bits)
            self.sim.schedule(
                self.hop_delay, self._broadcast, leader, kind, subject, parent
            )

    def _broadcast(
        self, leader_key: int, kind: str, subject: int, parent
    ) -> None:
        leader = self.nodes.get(leader_key)
        if leader is None or not leader.alive:
            return
        event = f"{kind}:{subject}"
        if event in leader.seen:
            return
        leader.seen.add(event)
        leader.obs.registry.inc(m.REPORT_SERVED)
        self._apply_event(leader, kind, subject)
        targets = [k for k in sorted(leader.known) if k != subject]
        ref = self._root(leader, kind, subject, parent, targets)
        self._multicast(targets, kind, subject, ref)

    def _deliver(self, key: int, kind: str, subject: int, ref) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        now = self.sim.now
        reg = member.obs.registry
        reg.inc(m.MCAST_RECEIVED)
        reg.observe(m.MCAST_DEPTH, 1.0)
        if member.obs.enabled:
            span = member.obs.start(
                "mcast.hop", now, parent=ref,
                kind=kind.upper(), subject=subject, depth=1,
            )
            member.obs.end(span, now)
        self._apply_event(member, kind, subject)
