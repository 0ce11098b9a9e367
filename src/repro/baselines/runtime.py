"""Executable, instrumented baseline networks for the protocol tournament.

The analytic schemes in this package answer "what *should* a strategy
cost"; these classes actually *run* each strategy over the DES engine
with the same observability hooks :class:`~repro.core.protocol.
PeerWindowNetwork` carries — per-member :class:`~repro.obs.trace.NodeObs`
spans (``join`` / ``probe`` / ``obituary`` / ``mcast.root`` /
``mcast.hop`` with parent links and ``depth`` attrs), a per-member
:class:`~repro.obs.metrics.MetricsRegistry`, and transport byte/message
accounting per wire kind — so a :class:`~repro.obs.stream.StreamWindower`
folds the exact same ``repro.telemetry`` v1 frames for every contestant
and ``repro compare --watch`` renders them side by side.

Every network satisfies the windower's duck type (``obs`` /
``now`` / ``run`` / ``live_nodes`` / ``level_histogram`` /
``mean_error_rate`` / ``metrics_snapshot`` / ``config``) plus the churn
surface the tournament workload drives (``live_keys`` / ``crash`` /
``join``).  All baselines are *flat* — every member reports level 0 —
which is precisely the contrast the paper draws against PeerWindow's
level hierarchy.

Determinism contract (same as the core protocol): all randomness flows
from :class:`~repro.sim.rng.RandomStreams` sub-streams, every timestamp
is the simulated clock, and every protocol decision iterates sorted
keys, so a seed reproduces frames and spans byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import ProtocolConfig
from repro.obs import metrics as m
from repro.obs.trace import Observability, Span
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = [
    "BaselineMember",
    "BaselineNetwork",
    "ExplicitProbeNetwork",
    "GossipNetwork",
    "OneHopNetwork",
    "RandomWalkNetwork",
]


class BaselineMember:
    """One participant in a baseline network.

    ``known`` maps peer key -> sim time the entry was last refreshed;
    ``dead`` carries death certificates (peer key -> burial time) so
    anti-entropy merges cannot resurrect a buried peer.
    """

    __slots__ = (
        "key", "alive", "known", "dead", "neighbors", "seen",
        "obs", "rng", "tasks", "joined_at",
    )

    def __init__(self, key: int, obs, rng):
        self.key = key
        self.alive = True
        self.known: Dict[int, float] = {}
        self.dead: Dict[int, float] = {}
        #: Static-overlay links (random-walk baseline only).
        self.neighbors: List[int] = []
        #: Event ids already applied (gossip duplicate suppression).
        self.seen: set = set()
        self.obs = obs
        self.rng = rng
        self.tasks: List = []
        self.joined_at = 0.0


class BaselineNetwork:
    """Shared machinery: population, probing detector, join handshake,
    oracle measurement, and the StreamWindower surface.

    Subclasses override :meth:`_on_death_detected` /
    :meth:`_announce_join` (how membership events disseminate),
    :meth:`_probe_targets` (how aggressively the detector probes), and
    the :meth:`_wire` / :meth:`_start_extra` hooks for scheme-specific
    overlay state and timers.
    """

    name = "baseline"
    #: One-way message latency between any two members (simulated s).
    hop_delay = 0.05

    def __init__(
        self,
        n_nodes: int,
        config: Optional[ProtocolConfig] = None,
        master_seed: int = 0,
        observability: bool = True,
    ):
        if n_nodes < 2:
            raise ValueError("a baseline network needs at least 2 members")
        self.config = config if config is not None else ProtocolConfig(id_bits=16)
        self.sim = Simulator()
        self.streams = RandomStreams(master_seed)
        self.obs = Observability(enabled=observability)
        #: Baselines only run sequentially (mirrors the attribute the
        #: windower-compatible surface exposes on the core network).
        self.parallel = None
        self.nodes: Dict[int, BaselineMember] = {}
        self._next_key = 0
        self._msgs: Dict[str, int] = {}
        self._bits: Dict[str, float] = {}
        self._death_time: Dict[int, float] = {}
        self._event_seq = 0
        keys = [self._spawn() for _ in range(n_nodes)]
        for key in keys:
            member = self.nodes[key]
            member.known = {k: 0.0 for k in keys if k != key}
        self._wire(keys)
        for key in keys:
            self._start(self.nodes[key])

    # -- population --------------------------------------------------------

    def _spawn(self) -> int:
        key = self._next_key
        self._next_key += 1
        self.nodes[key] = BaselineMember(
            key,
            obs=self.obs.view(key),
            rng=self.streams.spawn("baseline-member", key),
        )
        return key

    def _wire(self, keys: List[int]) -> None:
        """Scheme-specific overlay construction at seed time."""

    def _start(self, member: BaselineMember) -> None:
        interval = self.config.probe_interval
        phase = float(member.rng.uniform(0.0, interval))
        member.tasks.append(
            self.sim.every(
                interval, self._detector_tick, member.key, start_delay=phase
            )
        )
        self._start_extra(member)

    def _start_extra(self, member: BaselineMember) -> None:
        """Scheme-specific periodic timers."""

    def live_keys(self) -> List[int]:
        return [k for k in sorted(self.nodes) if self.nodes[k].alive]

    def live_nodes(self) -> List[BaselineMember]:
        return [self.nodes[k] for k in self.live_keys()]

    # -- churn surface (driven by the tournament workload) -----------------

    def crash(self, key: int) -> BaselineMember:
        """Silent death: timers stop, nobody is told."""
        member = self.nodes[key]
        if member.alive:
            member.alive = False
            for task in member.tasks:
                task.cancel()
            member.tasks = []
            self._death_time[key] = self.sim.now
        return member

    def leave(self, key: int) -> None:
        """Baselines have no goodbye protocol; leaving is crashing."""
        self.crash(key)

    def join(self, bootstrap: Optional[int] = None) -> int:
        """A new member joins via ``bootstrap`` (default: lowest live
        key), downloading its membership snapshot.  Returns the new key
        immediately; the handshake completes after a network round trip."""
        live = self.live_keys()
        if not live:
            raise ValueError("cannot join an empty network")
        if (
            bootstrap is None
            or bootstrap not in self.nodes
            or not self.nodes[bootstrap].alive
        ):
            bootstrap = live[0]
        key = self._spawn()
        member = self.nodes[key]
        now = self.sim.now
        member.joined_at = now
        span = None
        if member.obs.enabled:
            span = member.obs.start("join", now, via=bootstrap)
        self._send("join", self.config.event_message_bits)
        self.sim.schedule(2 * self.hop_delay, self._join_done, key, bootstrap, span)
        return key

    def _join_done(self, key: int, bootstrap: int, span: Optional[Span]) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        now = self.sim.now
        reg = member.obs.registry
        boot = self.nodes.get(bootstrap)
        if boot is None or not boot.alive:
            if span is not None:
                member.obs.end(span, now, status="failed")
            reg.inc(m.JOIN_FAILURES)
            self._start(member)
            return
        snapshot = [k for k in sorted(boot.known) if k != key]
        self._send(
            "download", self.config.pointer_bits * float(len(snapshot) + 1)
        )
        member.known = {k: now for k in snapshot}
        member.known[bootstrap] = now
        boot.known[key] = now
        if span is not None:
            member.obs.end(span, now, status="ok")
        reg.observe(m.JOIN_LATENCY, now - member.joined_at)
        self._start(member)
        self._announce_join(member, bootstrap, span)

    # -- failure detection -------------------------------------------------

    def _detector_tick(self, key: int) -> None:
        """Probe every target of this tick; the positive ones share one
        ack event (their acks would hold consecutive sequence numbers at
        one instant, so nothing could run between them)."""
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        now = self.sim.now
        nodes, send, schedule = self.nodes, self._send, self.sim.schedule
        heartbeat_bits, ack_bits = self.config.heartbeat_bits, self.config.ack_bits
        probe_timeout = self.config.probe_timeout
        start = member.obs.start if member.obs.enabled else None
        acked: List[Tuple[int, Optional[Span]]] = []
        for target in self._probe_targets(member):
            send("probe", heartbeat_bits)
            span = start("probe", now, target=target) if start else None
            peer = nodes.get(target)
            if peer is not None and peer.alive:
                send("ack", ack_bits)
                acked.append((target, span))
            else:
                schedule(probe_timeout, self._probe_timeout, key, target, span)
        if acked:
            schedule(2 * self.hop_delay, self._probes_ok, key, acked)

    def _probe_targets(self, member: BaselineMember) -> List[int]:
        """Default detector: one uniformly random known peer per tick."""
        known = sorted(member.known)
        if not known:
            return []
        return [known[int(member.rng.integers(0, len(known)))]]

    def _probes_ok(
        self, key: int, acked: List[Tuple[int, Optional[Span]]]
    ) -> None:
        member = self.nodes.get(key)
        if member is None:
            return
        now = self.sim.now
        rtt = 2 * self.hop_delay
        end, observe = member.obs.end, member.obs.registry.observe
        alive, known = member.alive, member.known
        for target, span in acked:
            if span is not None:
                end(span, now, status="ok")
            observe(m.PROBE_RTT, rtt)
            if alive and target in known:
                known[target] = now

    def _probe_timeout(self, key: int, target: int, span: Optional[Span]) -> None:
        member = self.nodes.get(key)
        if member is None:
            return
        now = self.sim.now
        if span is not None:
            member.obs.end(span, now, status="timeout")
        reg = member.obs.registry
        reg.inc(m.PROBE_TIMEOUTS)
        if not member.alive or target not in member.known:
            return
        self._forget(member, target, via="probe", parent=span)
        reg.inc(m.FAILURES_DETECTED)
        died = self._death_time.get(target)
        if died is not None:
            reg.observe(m.DETECT_LATENCY, now - died)
        self._on_death_detected(member, target, span)

    def _forget(
        self,
        member: BaselineMember,
        target: int,
        via: str,
        parent=None,
    ) -> None:
        member.known.pop(target, None)
        member.dead[target] = self.sim.now
        if member.obs.enabled:
            member.obs.instant(
                "obituary", self.sim.now, parent=parent, subject=target, via=via
            )

    # -- event dissemination hooks ----------------------------------------

    def _on_death_detected(
        self, member: BaselineMember, subject: int, parent: Optional[Span]
    ) -> None:
        """How (whether) a detected death spreads.  Default: it doesn't."""

    def _announce_join(
        self, member: BaselineMember, bootstrap: int, parent: Optional[Span]
    ) -> None:
        """How (whether) a completed join spreads.  Default: it doesn't."""

    def _apply_event(
        self, member: BaselineMember, kind: str, subject: int
    ) -> None:
        now = self.sim.now
        if kind == "leave":
            if subject in member.known:
                member.known.pop(subject, None)
                member.dead[subject] = now
        elif kind == "join":
            if subject != member.key and subject in self.nodes:
                member.dead.pop(subject, None)
                member.known[subject] = now

    def _event_id(self, kind: str, subject: int) -> str:
        self._event_seq += 1
        return f"{kind}:{subject}:{self._event_seq}"

    # -- transport accounting ----------------------------------------------

    def _send(self, kind: str, bits: float) -> None:
        self._msgs[kind] = self._msgs.get(kind, 0) + 1
        self._bits[kind] = self._bits.get(kind, 0.0) + float(bits)

    def total_bits(self) -> float:
        return float(sum(self._bits[k] for k in sorted(self._bits)))

    # -- oracle measurement -------------------------------------------------

    def member_error_rate(
        self, member: BaselineMember, correct: Optional[Set[int]] = None
    ) -> float:
        """(stale + absent) / correct, against the live-population oracle
        (``correct``: its key set, when the caller already built it)."""
        correct = set(self.live_keys()) if correct is None else correct
        actual = set(member.known)
        actual.add(member.key)
        if not correct:
            return 0.0
        stale = len(actual - correct)
        absent = len(correct - actual)
        return (stale + absent) / len(correct)

    def member_completeness(
        self, member: BaselineMember, correct: Optional[Set[int]] = None
    ) -> float:
        """|known ∩ live| / |live| — the collection-coverage fraction."""
        correct = set(self.live_keys()) if correct is None else correct
        if not correct:
            return 1.0
        actual = set(member.known)
        actual.add(member.key)
        return len(actual & correct) / len(correct)

    def _mean_over_live(self, measure, empty: float) -> float:
        live = self.live_keys()
        correct = set(live)  # one oracle set per measurement, not per member
        vals = [measure(self.nodes[k], correct) for k in live]
        return float(np.mean(vals)) if vals else empty

    def mean_error_rate(self) -> float:
        return self._mean_over_live(self.member_error_rate, 0.0)

    def mean_completeness(self) -> float:
        return self._mean_over_live(self.member_completeness, 1.0)

    # -- StreamWindower surface --------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        return self.sim.run(until=until, max_events=max_events)

    def level_histogram(self) -> Dict[int, int]:
        live = len(self.live_keys())
        return {0: live} if live else {}

    def spans(self) -> List[Span]:
        return self.obs.spans()

    def metrics_snapshot(self) -> Dict[str, object]:
        """Network-wide metrics aggregate with refreshed level gauges and
        injected transport counters (the same shape the core network
        produces, so :func:`repro.obs.health.metrics_signals` works)."""
        if self.obs.enabled:
            for view in self.obs.views().values():
                view.registry.gauges = {
                    k: v
                    for k, v in view.registry.gauges.items()
                    if not k.startswith(
                        (m.PEERS_SIZE_LEVEL + ".", m.NODES_LEVEL + ".")
                    )
                }
            for member in self.live_nodes():
                reg = member.obs.registry
                reg.set_gauge(
                    f"{m.PEERS_SIZE_LEVEL}.0", float(len(member.known) + 1)
                )
                reg.set_gauge(f"{m.NODES_LEVEL}.0", 1)
        snapshot = self.obs.metrics_snapshot()
        counters = snapshot["counters"]
        for kind in sorted(self._msgs):
            counters[f"{m.TRANSPORT_MSGS}.{kind}"] = self._msgs[kind]
        for kind in sorted(self._bits):
            counters[f"{m.TRANSPORT_BITS}.{kind}"] = self._bits[kind]
        return snapshot


class GossipNetwork(BaselineNetwork):
    """Flat push gossip (the §2 alternative): every membership event is
    rumor-mongered with fanout ``F`` and a ``2·ln n`` round TTL.

    Joins and detected deaths originate a ``mcast.root`` span; each
    receipt is a ``mcast.hop`` with its gossip round as ``depth`` and
    the sender's span as parent, so the telemetry pipeline reconstructs
    gossip "trees" exactly as it does PeerWindow multicasts — complete
    with the duplicate deliveries that make gossip pay redundancy ``r``.
    """

    name = "gossip"
    fanout = 3

    def _rounds_ttl(self) -> int:
        return max(2, int(math.ceil(2.0 * math.log(max(2, len(self.nodes))))))

    def _on_death_detected(self, member, subject, parent):
        self._originate(member, "leave", subject, parent)

    def _announce_join(self, member, bootstrap, parent):
        boot = self.nodes.get(bootstrap)
        if boot is not None and boot.alive:
            self._originate(boot, "join", member.key, parent)

    def _gossip_targets(self, member: BaselineMember, exclude: int) -> List[int]:
        pool = [k for k in sorted(member.known) if k != exclude]
        if not pool:
            return []
        count = min(self.fanout, len(pool))
        idx = member.rng.choice(len(pool), size=count, replace=False)
        return [pool[int(i)] for i in sorted(int(j) for j in idx)]

    def _originate(
        self,
        member: BaselineMember,
        kind: str,
        subject: int,
        parent: Optional[Span],
    ) -> None:
        now = self.sim.now
        event = self._event_id(kind, subject)
        member.seen.add(event)
        reg = member.obs.registry
        reg.inc(m.MCAST_ORIGINATED)
        targets = self._gossip_targets(member, exclude=subject)
        reg.observe(m.MCAST_FANOUT, float(len(targets)))
        root = None
        if member.obs.enabled:
            root = member.obs.start(
                "mcast.root", now, parent=parent,
                kind=kind.upper(), subject=subject, fanout=len(targets),
            )
            member.obs.end(root, now)
        ref = root.ref(1) if root is not None else None
        for target in targets:
            self._send("mcast", self.config.event_message_bits)
            self.sim.schedule(
                self.hop_delay, self._deliver, target, event, kind, subject, 1, ref
            )

    def _deliver(
        self,
        key: int,
        event: str,
        kind: str,
        subject: int,
        depth: int,
        ref,
    ) -> None:
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        now = self.sim.now
        reg = member.obs.registry
        reg.inc(m.MCAST_RECEIVED)
        span = None
        if member.obs.enabled:
            span = member.obs.start(
                "mcast.hop", now, parent=ref,
                kind=kind.upper(), subject=subject, depth=depth,
            )
        if event in member.seen:
            reg.inc(m.MCAST_DUPLICATES)
            if span is not None:
                member.obs.end(span, now, status="duplicate")
            return
        member.seen.add(event)
        reg.observe(m.MCAST_DEPTH, float(depth))
        self._apply_event(member, kind, subject)
        if depth < self._rounds_ttl():
            targets = self._gossip_targets(member, exclude=subject)
            reg.observe(m.MCAST_FANOUT, float(len(targets)))
            if span is not None:
                span.attrs["fanout"] = len(targets)
            next_ref = span.ref(depth + 1) if span is not None else None
            for target in targets:
                self._send("mcast", self.config.event_message_bits)
                self.sim.schedule(
                    self.hop_delay, self._deliver,
                    target, event, kind, subject, depth + 1, next_ref,
                )
        if span is not None:
            member.obs.end(span, now)


class OneHopNetwork(BaselineNetwork):
    """One-hop DHT [7]: full membership everywhere, homogeneously.

    A leader (the lowest live key) serializes membership events and
    broadcasts each to every member — a depth-1 ``n``-way star per
    event, which is exactly the per-event cost the paper's onehop column
    models.  Detectors report deaths to the leader; the leader dedups by
    (kind, subject) so one death yields one broadcast.
    """

    name = "onehop"

    def _leader_key(self, member: BaselineMember) -> int:
        candidates = sorted(set(member.known) | {member.key})
        return candidates[0]

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
        parent: Optional[Span],
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
        now = self.sim.now
        reg = leader.obs.registry
        reg.inc(m.REPORT_SERVED)
        reg.inc(m.MCAST_ORIGINATED)
        self._apply_event(leader, kind, subject)
        targets = [k for k in sorted(leader.known) if k != subject]
        reg.observe(m.MCAST_FANOUT, float(len(targets)))
        root = None
        if leader.obs.enabled:
            root = leader.obs.start(
                "mcast.root", now, parent=parent,
                kind=kind.upper(), subject=subject, fanout=len(targets),
            )
            leader.obs.end(root, now)
        ref = root.ref(1) if root is not None else None
        for target in targets:
            self._send("mcast", self.config.event_message_bits)
            self.sim.schedule(
                self.hop_delay, self._deliver, target, kind, subject, ref
            )

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

    name = "random-walk"
    walk_interval = 30.0
    neighbor_count = 4
    entry_ttl = 90.0

    def _walk_length(self) -> int:
        return max(4, int(math.ceil(2.0 * math.log(max(2, len(self.nodes))))))

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
        self, origin_key: int, at_key: int, steps: int, span: Optional[Span]
    ) -> None:
        now = self.sim.now
        origin = self.nodes.get(origin_key)
        if origin is None or not origin.alive:
            if span is not None:
                self.obs.view(origin_key).end(span, now, status="died")
            return
        if steps >= self._walk_length():
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
                origin.obs.registry.inc(m.FAILURES_DETECTED)
                died = self._death_time.get(nxt)
                if died is not None:
                    origin.obs.registry.observe(m.DETECT_LATENCY, now - died)
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
        self, origin: BaselineMember, steps: int, span: Optional[Span]
    ) -> None:
        now = self.sim.now
        origin.obs.registry.observe(m.WALK_STEPS, float(steps))
        if span is not None:
            span.attrs["steps"] = steps
            origin.obs.end(span, now)
        cutoff = now - self.entry_ttl
        for key in [k for k in sorted(origin.known) if origin.known[k] < cutoff]:
            origin.known.pop(key)


class ExplicitProbeNetwork(BaselineNetwork):
    """The intro's strawman: heartbeat *every* known peer, every period.

    Deaths are detected quickly (by everyone, independently) but nothing
    else ever propagates — a joiner is known only to its bootstrap — and
    nearly every probe returns positively, which is the 99.58 %-waste
    arithmetic of the paper's introduction made executable.
    """

    name = "explicit-probe"

    def _probe_targets(self, member: BaselineMember) -> List[int]:
        return sorted(member.known)
