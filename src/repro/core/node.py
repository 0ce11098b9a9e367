"""The PeerWindow node: a thin coordinator over the protocol services.

One :class:`PeerWindowNode` is the composition point of the §4 protocol
machinery, each concern implemented by a dedicated service sharing one
:class:`~repro.core.context.NodeContext`:

* :class:`~repro.core.join.JoinService` — the §4.3 joining handshake,
  warm-up, and join assistance;
* :class:`~repro.core.levelshift.LevelShiftService` — the autonomic level
  controller's commit paths (lower/raise, part split/merge);
* :class:`~repro.core.failure.FailureDetector` — the §4.1 ring probe loop;
* :class:`~repro.core.dissemination.MulticastService` — the §4.2 tree
  multicast with acks/retries/redirects plus the §4.5 report path;
* :class:`~repro.core.maintenance.MaintenanceService` — the §4.6
  refresh/expiry loops.

The coordinator itself owns only lifecycle (bootstrap / install / join /
leave / crash), message dispatch, and the public accessors the harness
and tests use.  It runs against whatever
:class:`~repro.kernel.runtime.NodeRuntime` it is handed as ``runtime=``.

Part handling (§4.4): each node tracks whether it believes itself a *top
node* (no stronger node in its part).  Top nodes answer reports with
multicasts and keep a :class:`~repro.core.topnodes.CrossPartTopList` for
other parts.  Part *merging* (a top node raising above its part's level)
uses a bridge subscription — see DESIGN.md §8; the paper leaves this path
unspecified.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.context import NodeContext, NodeStats
from repro.core.dissemination import MulticastService
from repro.core.errors import NotAliveError
from repro.core.events import EventKind, EventRecord
from repro.core.failure import FailureDetector
from repro.core.join import JoinService
from repro.core.levelshift import LevelShiftService
from repro.core.maintenance import MaintenanceService
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message

__all__ = ["PeerWindowNode", "NodeStats"]


class PeerWindowNode:
    """A live protocol participant.

    Construction wires the node to its runtime but does **not** join it:
    call :meth:`bootstrap_first` for the very first node of a system, or
    :meth:`join_via` with a bootstrap address for everyone else.  The
    :class:`~repro.core.protocol.PeerWindowNetwork` harness drives both.
    """

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        node_id: Optional[NodeId] = None,
        address: Hashable = None,
        threshold_bps: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        attached_info: Any = None,
        on_left: Optional[Callable[["PeerWindowNode"], None]] = None,
        runtime: Optional[NodeRuntime] = None,
        obs: Any = None,
    ):
        if runtime is None or config is None or node_id is None or rng is None:
            raise ValueError("runtime, config, node_id and rng are required")
        self.runtime = runtime
        self._on_left = on_left

        self.ctx = NodeContext(
            runtime,
            config,
            node_id,
            address,
            threshold_bps,
            rng,
            attached_info=attached_info,
            obs=obs,
        )
        self.dissemination = MulticastService(runtime, self.ctx)
        # The report path is the capability every other service needs;
        # wire it into the shared context before anything can fire.
        self.ctx.report_event = self.dissemination.report_event
        self.failure = FailureDetector(runtime, self.ctx)
        # Verify-before-believe (DESIGN §16): dissemination asks the
        # failure detector to confirm third-party obituaries by probing.
        self.ctx.confirm_dead = self.failure.confirm_dead
        self.levels = LevelShiftService(runtime, self.ctx)
        self.join = JoinService(
            runtime,
            self.ctx,
            self.levels,
            on_joined=self._start_loops,
            verify_stale=self.failure.verify,
        )
        self.maintenance = MaintenanceService(runtime, self.ctx)
        self.ctx.endpoint = runtime.register(address, self._on_message)

    # ------------------------------------------------------------------
    # context accessors (the pre-split public surface)
    # ------------------------------------------------------------------

    @property
    def config(self) -> ProtocolConfig:
        return self.ctx.config

    @property
    def node_id(self) -> NodeId:
        return self.ctx.node_id

    @property
    def address(self) -> Hashable:
        return self.ctx.address

    @property
    def threshold_bps(self) -> float:
        return self.ctx.threshold_bps

    @threshold_bps.setter
    def threshold_bps(self, value: float) -> None:
        self.ctx.threshold_bps = float(value)

    @property
    def rng(self) -> np.random.Generator:
        return self.ctx.rng

    @property
    def level(self) -> int:
        return self.ctx.level

    @level.setter
    def level(self, value: int) -> None:
        self.ctx.level = value

    @property
    def alive(self) -> bool:
        return self.ctx.alive

    @alive.setter
    def alive(self, value: bool) -> None:
        self.ctx.alive = value

    @property
    def is_top(self) -> bool:
        return self.ctx.is_top

    @is_top.setter
    def is_top(self, value: bool) -> None:
        self.ctx.is_top = value

    @property
    def attached_info(self) -> Any:
        return self.ctx.attached_info

    @attached_info.setter
    def attached_info(self, value: Any) -> None:
        self.ctx.attached_info = value

    @property
    def peer_list(self):
        return self.ctx.peer_list

    @property
    def top_list(self):
        return self.ctx.top_list

    @property
    def cross_parts(self):
        return self.ctx.cross_parts

    @property
    def estimator(self):
        return self.ctx.estimator

    @property
    def refresh_mgr(self):
        return self.ctx.refresh_mgr

    @property
    def controller(self):
        return self.ctx.controller

    @property
    def stats(self) -> NodeStats:
        return self.ctx.stats

    @property
    def endpoint(self):
        return self.ctx.endpoint

    @property
    def bridge_subscribers(self) -> Dict[int, Pointer]:
        return self.ctx.bridge_subscribers

    @property
    def forwarder(self):
        return self.dissemination.forwarder

    @property
    def eigenstring(self) -> str:
        return self.ctx.eigenstring

    def self_pointer(self) -> Pointer:
        return self.ctx.self_pointer()

    # Pre-split private names a few whitebox tests poke at.

    @property
    def _seq(self) -> int:
        return self.ctx.seq

    @_seq.setter
    def _seq(self, value: int) -> None:
        self.ctx.seq = value

    @property
    def _raising(self) -> bool:
        return self.ctx.raising

    @_raising.setter
    def _raising(self, value: bool) -> None:
        self.ctx.raising = value

    @property
    def _seen_events(self) -> Dict[int, int]:
        return self.ctx.seen_events

    def _make_event(self, kind: EventKind) -> EventRecord:
        return self.ctx.make_event(kind)

    def _part_level(self) -> int:
        return self.ctx.part_level()

    def _commit_lower(self) -> None:
        self.levels.commit_lower()

    def _initiate_raise(self, new_level: int) -> None:
        self.levels.initiate_raise(new_level)

    def _raise_source(self, new_level: int) -> Optional[Pointer]:
        return self.levels._raise_source(new_level)

    def report_event(self, event: EventRecord, _attempt: int = 0, trace=None) -> None:
        self.dissemination.report_event(event, _attempt=_attempt, trace=trace)

    # ------------------------------------------------------------------
    # lifecycle: bootstrap / join / leave / crash
    # ------------------------------------------------------------------

    def bootstrap_first(self, level: int = 0) -> None:
        """Become the first node of a (part of a) system at ``level``."""
        ctx = self.ctx
        ctx.level = level
        ctx.peer_list.retarget(level)
        ctx.peer_list.add(ctx.self_pointer())
        ctx.is_top = True
        ctx.alive = True
        self._start_loops()

    def install(
        self,
        level: int,
        population: PeerList,
        top_pointers: List[Pointer],
        is_top: bool,
    ) -> None:
        """Direct state installation (the harness's initial seeding —
        the paper likewise *creates* its 100,000 nodes before churning):
        the peer list becomes this node's slice of ``population``, the
        id-sorted table of every seeded node's own pointer."""
        ctx = self.ctx
        ctx.level = level
        ctx.peer_list.retarget(level)
        ctx.peer_list.load_sorted(population)
        if ctx.node_id not in ctx.peer_list:
            ctx.peer_list.add(ctx.self_pointer())
        ctx.top_list.merge(top_pointers)
        ctx.is_top = is_top
        ctx.alive = True
        self._start_loops()

    def join_via(
        self,
        bootstrap_address: Hashable,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Run the §4.3 joining handshake through ``bootstrap_address``."""
        self.join.join_via(bootstrap_address, on_done=on_done)

    def update_attached_info(self, info: Any) -> None:
        """Change this node's application info and announce it (§2's
        "information changing" event; §3's attached-info usage)."""
        ctx = self.ctx
        if not ctx.alive:
            raise NotAliveError(f"{ctx.address!r} is not alive")
        ctx.attached_info = info
        ctx.peer_list.update(ctx.node_id, attached_info=info)
        ctx.report_event(ctx.make_event(EventKind.INFO_CHANGE))

    def leave(self) -> None:
        """Graceful departure: announce, then disconnect."""
        ctx = self.ctx
        if not ctx.alive:
            raise NotAliveError(f"{ctx.address!r} is not alive")
        event = ctx.make_event(EventKind.LEAVE)
        ctx.alive = False
        ctx.cancel_loops()
        if ctx.is_top:
            self.dissemination.start_multicast(event)
            grace = (
                ctx.config.multicast_ack_timeout * ctx.config.multicast_attempts
                + 2 * ctx.config.multicast_processing_delay
            )
            self.runtime.schedule(grace, self._disconnect)
        else:
            ctx.report_event(event)
            self.runtime.schedule(ctx.config.report_timeout, self._disconnect)

    def crash(self) -> None:
        """Abrupt departure: vanish without notification (§4.1's case)."""
        if not self.ctx.alive:
            return
        self.ctx.alive = False
        self.ctx.cancel_loops()
        self._disconnect()

    def recover_via(
        self,
        bootstrap_address: Hashable,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Rejoin after a crash, keeping the pre-crash peer-list cache.

        Runs the ordinary §4.3 handshake, but the download *reconciles*
        against the cached list instead of replacing it (see JoinService);
        cached entries the snapshot does not confirm are probed by the
        failure detector and evicted with obituaries if truly dead.

        The event sequence number jumps by 2 past its crash-time value so
        the recovery JOIN outruns any obituary the network multicast while
        we were down (an obituary's seq is at most our crash seq + 1 —
        detectors use their pointer's ``last_event_seq + 1``).
        """
        ctx = self.ctx
        if ctx.alive:
            raise NotAliveError(f"{ctx.address!r} is still alive; cannot recover")
        if self.runtime.is_alive(ctx.address):
            raise NotAliveError(f"{ctx.address!r} is still registered")
        ctx.endpoint = self.runtime.register(ctx.address, self._on_message)
        ctx.seq += 2
        ctx.recovering = True
        self.join.join_via(bootstrap_address, on_done=on_done)

    def _disconnect(self) -> None:
        if self.runtime.is_alive(self.ctx.address):
            self.runtime.unregister(self.ctx.address)
        if self._on_left is not None:
            self._on_left(self)

    def _start_loops(self) -> None:
        self.failure.start()
        self.levels.start_level_loop()
        self.maintenance.start()

    def _stop_loops(self) -> None:
        self.ctx.cancel_loops()

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, msg: Message) -> None:
        if not self.ctx.alive:
            return
        kind = msg.kind
        if kind == "probe":
            self.failure.on_probe(msg)
        elif kind == "mcast":
            self.dissemination.on_mcast(msg)
        elif kind == "event-copy":
            self.dissemination.on_event_copy(msg)
        elif kind == "report":
            self.dissemination.on_report(msg)
        elif kind == "get-top":
            self.join.on_get_top(msg)
        elif kind == "level-query":
            self.join.on_level_query(msg)
        elif kind == "download":
            self.join.on_download(msg)
        elif kind == "get-topnodes":
            self.dissemination.on_get_topnodes(msg)
        elif kind == "bridge-subscribe":
            self.dissemination.on_bridge_subscribe(msg)
        # Unknown kinds and late acks are ignored.

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ctx = self.ctx
        idrepr = (
            ctx.node_id.bitstring()
            if ctx.node_id.bits <= 16
            else hex(ctx.node_id.value)
        )
        return (
            f"<PeerWindowNode {ctx.address!r} id={idrepr} level={ctx.level} "
            f"{'top ' if ctx.is_top else ''}{'alive' if ctx.alive else 'gone'}>"
        )
