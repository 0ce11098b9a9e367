"""Shared per-node protocol state: the :class:`NodeContext`.

The four protocol services (join, failure detection, dissemination,
maintenance) and the :class:`~repro.core.node.PeerWindowNode` coordinator
all operate on one context object per node — identity, level, peer list,
top-node lists, estimators, counters, and the per-subject event-sequence
memory.  Keeping the state in one place (instead of spread across the
services) preserves the invariant the monolithic node had implicitly:
every service sees every state change immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Union

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.events import EventKind, EventRecord
from repro.core.levels import LevelController
from repro.core.nodeid import NodeId, eigenstring
from repro.core.peerlist import AddressTable, PeerList
from repro.core.pointer import Pointer
from repro.core.refresh import LifetimeEstimator, RefreshManager
from repro.core.topnodes import CrossPartTopList, TopNodeList
from repro.kernel.clock import TimerHandle
from repro.kernel.runtime import NodeRuntime
from repro.obs.trace import NodeObs
from repro.sim.rng import SubStream


@dataclass
class NodeStats:
    """Per-node protocol counters (reset never; read by the harness)."""

    events_applied: int = 0
    events_originated: int = 0
    mcasts_received: int = 0
    mcast_duplicates: int = 0
    probes_sent: int = 0
    failures_detected: int = 0
    reports_sent: int = 0
    reports_failed: int = 0
    reports_served: int = 0
    level_raises: int = 0
    level_lowers: int = 0
    refreshes_sent: int = 0
    downloads_served: int = 0
    joins_assisted: int = 0


class NodeContext:
    """Everything one node's services share.

    ``report_event`` is wired by the coordinator after the dissemination
    service exists (services are constructed in dependency order, and the
    report path is the one capability every other service needs).

    Slotted: 33 attributes overflow CPython's shared-key instance dict,
    which cost every node ≈ 1.3 KB of dict.
    """

    __slots__ = (
        "runtime", "config", "node_id", "address", "threshold_bps", "rng",
        "attached_info", "obs", "level", "alive", "is_top", "seq", "raising",
        "recovering", "addresses", "peer_list", "top_list", "cross_parts", "estimator",
        "refresh_mgr", "controller", "stats", "bridge_subscribers",
        "recent_downloads", "seen_events", "relayed_reports", "endpoint",
        "loop_timers", "report_event", "confirm_dead", "obit_strikes",
        "obit_quarantine", "obit_pending", "last_join_served",
    )

    def __init__(
        self,
        runtime: NodeRuntime,
        config: ProtocolConfig,
        node_id: NodeId,
        address: Hashable,
        threshold_bps: float,
        rng: Union[np.random.Generator, SubStream],
        attached_info: Any = None,
        obs: NodeObs = None,
        addresses: Optional[AddressTable] = None,
    ):
        self.runtime = runtime
        self.config = config
        self.node_id = node_id
        self.address = address
        self.threshold_bps = float(threshold_bps)
        self.rng = rng
        self.attached_info = attached_info
        #: This node's observability handle (tracer + metrics registry).
        #: Disabled by default: every instrumentation site guards on
        #: ``obs.enabled`` / the registry's internal flag, so the layer
        #: costs one attribute check per potential span when off.
        self.obs = obs if obs is not None else NodeObs(address, enabled=False)

        self.level = 0
        self.alive = False
        self.is_top = False
        self.seq = 0
        self.raising = False
        #: True while a crash-recovery rejoin is in flight: the §4.3
        #: download then *reconciles* against the stale cached peer list
        #: instead of starting from an empty one (see JoinService).
        self.recovering = False

        #: The ``id value -> address`` table every list of this node
        #: reads row addresses from (:mod:`repro.core.peerlist`): the
        #: network's, shared by all its nodes, or the node's own.
        self.addresses: AddressTable = {} if addresses is None else addresses
        self.peer_list = PeerList(node_id, 0, self.addresses)
        self.top_list = TopNodeList(config.top_list_size, self.addresses)
        self.cross_parts = CrossPartTopList(config.top_list_size, self.addresses)
        self.estimator = LifetimeEstimator(prior_mean=3600.0)
        self.refresh_mgr = RefreshManager(config, self.estimator)
        self.controller = LevelController(config, threshold_bps)
        self.stats = NodeStats()
        #: Nodes subscribed to copies of every multicast this (top) node
        #: originates — the part-merge bridge (DESIGN.md §8).  Rows, at
        #: most ``top_list_size`` of them, allocated at the first
        #: subscription: a node that never bridges has none.
        self.bridge_subscribers: Optional[TopNodeList] = None
        #: ``(requester_address, served_time)`` for recently served §4.3
        #: downloads: events applied within ``config.download_grace`` of a
        #: serve are copied to the requester, who is in nobody's audience
        #: until its JOIN multicast lands (DESIGN.md §8).
        self.recent_downloads: List[tuple] = []
        self.seen_events: Dict[int, int] = {}  # subject id value -> max seq
        #: Events relayed upward as a stale "top" (§4.5), subject id value
        #: -> max seq.  A separate map from ``seen_events`` on purpose:
        #: marking a relayed event *seen* would make the later tree
        #: delivery look like a duplicate, which is acked without
        #: forwarding — black-holing the subtree routed through us.
        self.relayed_reports: Dict[int, int] = {}
        self.endpoint = None  # set by the coordinator after registration
        #: The timer of each periodic loop, by loop name — one handle
        #: per loop, see :meth:`arm`.
        self.loop_timers: Dict[str, TimerHandle] = {}
        #: Dissemination entry point, wired by the coordinator.  Accepts
        #: an optional ``trace=`` keyword (a span context) so the caller's
        #: operation — an obituary, a join, a level shift — continues as
        #: one causal trace through the report/multicast path.
        self.report_event: Callable[..., None] = _unwired
        #: Verify-before-believe hook (DESIGN §16), wired by the
        #: coordinator to ``FailureDetector.confirm_dead``.  ``None``
        #: means no detector is attached and obituaries pass unverified.
        self.confirm_dead: Optional[Callable[..., None]] = None
        #: Refuted-obituary strikes per accuser address, and the set of
        #: accusers quarantined after ``config.quarantine_strikes``; each
        #: allocated at its first entry (most nodes never strike anyone).
        self.obit_strikes: Optional[Dict[Hashable, int]] = None
        self.obit_quarantine: Optional[Set[Hashable]] = None
        #: Obituary verifications in flight: subject id value -> list of
        #: ``(accuser_or_None, proceed)`` continuations, allocated at the
        #: first verification.  Concurrent accusations about one subject
        #: settle on a single probe chain.
        self.obit_pending: Optional[Dict[int, List[tuple]]] = None
        #: When this node last served a §4.3 get-top, for the
        #: ``config.join_throttle_interval`` admission throttle.
        self.last_join_served: float = float("-inf")

    # -- identity helpers --------------------------------------------------

    @property
    def eigenstring(self) -> str:
        return eigenstring(self.node_id, self.level)

    def self_pointer(self) -> Pointer:
        return Pointer(
            node_id=self.node_id,
            address=self.address,
            level=self.level,
            attached_info=self.attached_info,
            last_refresh=self.runtime.now,
            last_event_seq=self.seq,
        )

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def make_event(self, kind: EventKind) -> EventRecord:
        return EventRecord(
            kind=kind,
            subject_id=self.node_id,
            subject_level=self.level,
            subject_address=self.address,
            seq=self.next_seq(),
            origin_time=self.runtime.now,
            attached_info=self.attached_info,
        )

    def part_level(self) -> int:
        """The believed part-prefix length: our level if we are a top node,
        else the strongest level in our top-node list."""
        if self.is_top:
            return self.level
        known = self.top_list.min_level()
        return known if known is not None else 0

    # -- timer bookkeeping -------------------------------------------------

    def arm(self, loop: str, delay: float, tick: Callable[[], None]) -> None:
        """Run ``tick`` after ``delay`` as the periodic loop named ``loop``
        (probe, refresh, sweep, audit, level), whose timer is kept for
        cancellation at departure.

        One handle per loop for the node's life: a loop re-arms from its
        own tick (or from the request that tick sent), so the handle in
        its slot has fired and :meth:`~repro.kernel.clock.TimerHandle.rearm`
        queues it again, in the place a fresh schedule would take; a
        second start of a running loop is refused there, by name.  Only a
        loop's first tick — or one after :meth:`cancel_loops` emptied the
        slots — schedules a handle.  (A handle and a bound method per
        period, each alive for the period, was the medium-lived garbage
        that promoted into the collector's oldest generation — see
        :mod:`repro.sim.engine`.)
        """
        handle = self.loop_timers.get(loop)
        if handle is None:
            self.loop_timers[loop] = self.runtime.schedule(delay, tick)
        else:
            handle.rearm(delay)

    def cancel_loops(self) -> None:
        for handle in self.loop_timers.values():
            handle.cancel()
        self.loop_timers.clear()


def _unwired(event: EventRecord, **_kw: Any) -> None:  # pragma: no cover - wiring guard
    raise RuntimeError("NodeContext.report_event used before wiring")
