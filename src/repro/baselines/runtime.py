"""What every executable baseline network shares.

Each design module's network is a :class:`BaselineNetwork` subclass: it
*runs* the strategy over the DES engine with the observability hooks
:class:`~repro.core.protocol.PeerWindowNetwork` carries — per-member
spans (``join`` / ``probe`` / ``obituary`` / ``mcast.root`` /
``mcast.hop`` with parent links and ``depth`` attrs), metrics, and
transport accounting per wire kind — so a
:class:`~repro.obs.stream.StreamWindower` folds the same
``repro.telemetry`` v1 frames for every contestant.  All baselines are
*flat* — every member reports level 0 — which is precisely the contrast
the paper draws against PeerWindow's level hierarchy.

A detector tick is one batch, since ``explicit-probe`` sends almost
every message of a tournament: the tick bills ``probe`` and ``ack`` once
each for its k messages, opens its ``probe`` spans as k contiguous rows
(:meth:`~repro.obs.trace.NodeObs.open_rows`) and schedules one
``_probes_ok`` event that closes the positive ones
(:meth:`~repro.obs.trace.NodeObs.close_rows`) and observes ``probe.rtt``
k times at once.  A span handle is made only for a probe that will time
out, since its obituary hangs under it.  Every float sum is still k
additions in turn, so the batch bills, spans, frames and metrics are
byte-for-byte the per-probe ones (DESIGN.md §18).

Determinism contract (same as the core protocol): all randomness flows
from :class:`~repro.sim.rng.RandomStreams` sub-streams, every timestamp
is the simulated clock, and every protocol decision iterates sorted
keys, so a seed reproduces frames and spans byte-for-byte.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, repeat
from operator import add
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.config import ProtocolConfig
from repro.obs import metrics as m
from repro.obs.trace import Observability, OpenSpan, Span, SpanRef
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

__all__ = ["BaselineMember", "BaselineNetwork"]


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
    oracle measurement, the StreamWindower duck type (``obs`` / ``now`` /
    ``run`` / ``live_nodes`` / ``level_histogram`` / ``mean_error_rate`` /
    ``metrics_snapshot`` / ``config``) and the contestant surface the
    tournament drives and measures (``live_keys`` / ``crash`` / ``join`` /
    ``mean_completeness`` / ``total_bits``).

    Subclasses override :meth:`_on_death_detected` /
    :meth:`_announce_join` (how membership events disseminate),
    :meth:`_probe_targets` (how aggressively the detector probes), and
    the :meth:`_wire` / :meth:`_start_extra` hooks for scheme-specific
    overlay state and timers.  Each also declares its contestant
    ``name``, its closed form ``scheme`` and ``error_hi``.
    """

    name: str
    #: The design's closed form (a ``CollectionScheme`` subclass).
    scheme: type
    #: The loose ``peerlist.error_rate`` ceiling the tournament judges the
    #: design by: a design performing as the paper predicts stays inside.
    error_hi: float
    #: One-way message latency between any two members (simulated s).
    hop_delay = 0.05
    #: The configuration a network runs with unless given one; the closed
    #: forms read their probe period and wire sizes from it.
    config = ProtocolConfig(id_bits=16)

    def __init__(
        self,
        n_nodes: int,
        config: Optional[ProtocolConfig] = None,
        master_seed: int = 0,
        observability: bool = True,
    ):
        if n_nodes < 2:
            raise ValueError("a baseline network needs at least 2 members")
        if config is not None:
            self.config = config
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

    def _join_done(self, key: int, bootstrap: int, span: Optional[OpenSpan]) -> None:
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
        """Probe every target of this tick as one batch: one bill per
        wire kind, the spans opened as contiguous rows, and one ack
        event for the positive probes (their acks would hold consecutive
        sequence numbers at one instant, so nothing could run between
        them).  Only a probe that will time out gets a span handle: its
        obituary hangs under it."""
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        targets = self._probe_targets(member)
        if not targets:
            return
        obs = member.obs
        rows = obs.open_rows("probe", self.sim.now, "target", targets) if obs.enabled else None
        up = [peer is not None and peer.alive for peer in map(self.nodes.get, targets)]
        acked = list(compress(targets, up))
        self._send("probe", self.config.heartbeat_bits, len(targets))
        if acked:
            self._send("ack", self.config.ack_bits, len(acked))
        if len(acked) < len(targets):
            for i, ok in enumerate(up):
                if not ok:
                    span = obs.handle(rows[i]) if rows is not None else None
                    self.sim.schedule(
                        self.config.probe_timeout, self._probe_timeout,
                        key, targets[i], span,
                    )
        if acked:
            acked_rows = list(compress(rows, up)) if rows is not None else None
            self.sim.schedule(2 * self.hop_delay, self._probes_ok, key, acked, acked_rows)

    def _probe_targets(self, member: BaselineMember) -> List[int]:
        """Default detector: one uniformly random known peer per tick."""
        known = sorted(member.known)
        if not known:
            return []
        return [known[int(member.rng.integers(0, len(known)))]]

    def _probes_ok(
        self, key: int, targets: List[int], rows: Optional[List[int]]
    ) -> None:
        member = self.nodes.get(key)
        if member is None:
            return
        now = self.sim.now
        if rows is not None:
            member.obs.close_rows(rows, now, status="ok")
        member.obs.registry.observe_repeat(m.PROBE_RTT, 2 * self.hop_delay, len(targets))
        if member.alive:
            known = member.known
            known.update(dict.fromkeys(filter(known.__contains__, targets), now))

    def _probe_timeout(self, key: int, target: int, span: Optional[OpenSpan]) -> None:
        member = self.nodes.get(key)
        if member is None:
            return
        now = self.sim.now
        if span is not None:
            member.obs.end(span, now, status="timeout")
        member.obs.registry.inc(m.PROBE_TIMEOUTS)
        if not member.alive or target not in member.known:
            return
        self._forget(member, target, via="probe", parent=span)
        self._on_death_detected(member, target, span)

    def _forget(
        self, member: BaselineMember, target: int, via: str, parent=None
    ) -> None:
        """``member`` detects ``target`` dead: it buries and counts it."""
        now = self.sim.now
        member.known.pop(target, None)
        member.dead[target] = now
        if member.obs.enabled:
            member.obs.instant("obituary", now, parent=parent, subject=target, via=via)
        member.obs.registry.inc(m.FAILURES_DETECTED)
        died = self._death_time.get(target)
        if died is not None:
            member.obs.registry.observe(m.DETECT_LATENCY, now - died)

    # -- event dissemination hooks ----------------------------------------

    def _on_death_detected(
        self, member: BaselineMember, subject: int, parent: Optional[OpenSpan]
    ) -> None:
        """How (whether) a detected death spreads.  Default: it doesn't."""

    def _announce_join(
        self, member: BaselineMember, bootstrap: int, parent: Optional[OpenSpan]
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

    def _root(
        self,
        member: BaselineMember,
        kind: str,
        subject: int,
        parent: Optional[OpenSpan],
        targets: List[int],
    ) -> Optional[SpanRef]:
        """Count and trace the root of an event ``member`` sends to
        ``targets``; returns the ref its first hops hang under."""
        reg = member.obs.registry
        reg.inc(m.MCAST_ORIGINATED)
        reg.observe(m.MCAST_FANOUT, float(len(targets)))
        if not member.obs.enabled:
            return None
        now = self.sim.now
        root = member.obs.start(
            "mcast.root", now, parent=parent,
            kind=kind.upper(), subject=subject, fanout=len(targets),
        )
        member.obs.end(root, now)
        return root.ref(1)

    def _multicast(self, targets: List[int], *args) -> None:
        """One ``mcast`` message to each of ``targets``, handled by
        ``self._deliver(target, *args)`` a hop later."""
        for target in targets:
            self._send("mcast", self.config.event_message_bits)
            self.sim.schedule(self.hop_delay, self._deliver, target, *args)

    def _event_id(self, kind: str, subject: int) -> str:
        self._event_seq += 1
        return f"{kind}:{subject}:{self._event_seq}"

    # -- transport accounting ----------------------------------------------

    def _send(self, kind: str, bits: float, count: int = 1) -> None:
        """Bill ``count`` messages of ``bits`` each: the bit total takes
        ``count`` additions in turn, as ``count`` single bills would."""
        self._msgs[kind] = self._msgs.get(kind, 0) + count
        self._bits[kind] = reduce(add, repeat(float(bits), count), self._bits.get(kind, 0.0))

    def total_bits(self) -> float:
        return float(sum(self._bits[k] for k in sorted(self._bits)))

    # -- oracle measurement -------------------------------------------------

    def member_error_rate(
        self, member: BaselineMember, correct: Optional[Set[int]] = None
    ) -> float:
        """(stale + absent) / correct, against the live-population oracle
        (``correct``: its key set, when the caller already built it)."""
        correct = set(self.live_keys()) if correct is None else correct
        if not correct:
            return 0.0
        actual = set(member.known) | {member.key}
        return (len(actual - correct) + len(correct - actual)) / len(correct)

    def member_completeness(
        self, member: BaselineMember, correct: Optional[Set[int]] = None
    ) -> float:
        """|known ∩ live| / |live| — the collection-coverage fraction."""
        correct = set(self.live_keys()) if correct is None else correct
        if not correct:
            return 1.0
        return len((set(member.known) | {member.key}) & correct) / len(correct)

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
        """The same shape the core network produces (every member at level
        0), so :func:`repro.obs.health.metrics_signals` works."""
        return self.obs.network_snapshot(
            ((mem.obs.registry, 0, float(len(mem.known) + 1))
             for mem in self.live_nodes()),
            self._msgs,
            self._bits,
        )
