"""MulticastService: the §4.2/§4.5 event-dissemination machinery.

One service instance per node, owning:

* origination and relay of the tree multicast (acks, retries,
  stale-pointer redirects) via
  :class:`~repro.core.multicast.MulticastForwarder`;
* the report path — deliver an event to a top node, retry across the
  top-node list, fall back to peers' top-node lists when every pointer is
  stale (§4.5);
* serving reports, top-node-list queries, and bridge subscriptions (the
  part-merge completion of DESIGN.md §8);
* applying received events to the shared peer list and top-node list.

The service is runtime-agnostic: it talks to the network exclusively
through :class:`~repro.kernel.runtime.NodeRuntime`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.context import NodeContext
from repro.core.events import EventKind, EventRecord, apply_event, obituary_seq
from repro.core.multicast import MulticastForwarder
from repro.core.pointer import Pointer
from repro.core.topnodes import TopNodeList
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan, SpanRef


class MulticastService:
    """Tree multicast + ack/redirect + report retry/fallback (§4.2, §4.5).

    Observability: when ``ctx.obs`` is enabled, a multicast origination
    opens an ``mcast.root`` span, each fresh relay receipt an
    ``mcast.hop`` span parented (via ``Message.trace``) to the sender's
    span, and redirects/obituaries become instant spans in the same
    trace — so one dissemination reconstructs as one span tree.  All
    hooks are attribute-check guards when disabled, and tracing never
    adds messages or RNG draws, so enabling it cannot change behaviour.
    """

    def __init__(self, runtime: NodeRuntime, ctx: NodeContext):
        self.runtime = runtime
        self.ctx = ctx
        self.forwarder = MulticastForwarder(
            ctx.config,
            ctx.node_id,
            ctx.peer_list,
            send_fn=self._mcast_send,
            on_stale_pointer=self._stale_pointer,
            on_redirect=self._on_redirect,
        )
        # The tree edge's request callbacks, bound once for every send.
        self._mcast_acked = self._on_mcast_ack
        self._mcast_missed = self._on_mcast_timeout

    def _on_redirect(
        self, failed: Pointer, replacement: Pointer, bit: int, trace=None
    ) -> None:
        obs = self.ctx.obs
        obs.registry.inc(m.MCAST_REDIRECTS)
        if obs.enabled:
            obs.instant(
                "mcast.redirect",
                self.runtime.now,
                parent=trace,
                failed=str(failed.address),
                replacement=str(replacement.address),
                bit=bit,
            )

    def _stale_pointer(self, departed: Pointer, trace=None) -> None:
        """A relay target never acked and was removed (§4.2).

        That removal is a failure *detection*, so it must be announced
        like one (§4.1): if the remover happened to be the dead node's
        only ring predecessor, nobody else will ever probe it and the
        stale pointer would survive in every other list forever.  A
        false positive is healed by the subject's own higher-sequence
        REFRESH refutation, exactly as for probe-based detection.
        """
        ctx = self.ctx
        obs = ctx.obs
        ctx.estimator.observe_departure(departed, self.runtime.now)
        obs.registry.inc(m.MCAST_STALE_REMOVED)
        obit: Optional[OpenSpan] = None
        if obs.enabled:
            obit = obs.instant(
                "obituary",
                self.runtime.now,
                parent=trace,
                subject=str(departed.address),
                via="mcast-retry",
            )
        ctx.report_event(
            EventRecord(
                kind=EventKind.LEAVE,
                subject_id=departed.node_id,
                subject_level=departed.level,
                subject_address=departed.address,
                seq=obituary_seq(departed.last_event_seq),
                origin_time=self.runtime.now,
            ),
            trace=obit.ref() if obit is not None else None,
        )

    # -- relay path --------------------------------------------------------

    def on_mcast(self, msg: Message) -> None:
        ctx = self.ctx
        obs = ctx.obs
        event, start_bit = msg.payload
        ctx.stats.mcasts_received += 1
        obs.registry.inc(m.MCAST_RECEIVED)
        subject_value = event.subject_id.value
        if subject_value == ctx.node_id.value:
            self.runtime.send(
                msg.make_reply("mcast-ack", size_bits=ctx.config.ack_bits)
            )
            # We are in our own audience, so a *false* failure report (a
            # lost probe ack, §4.1) reaches us as our own obituary.  Refute
            # it with a higher-sequence refresh so every audience member
            # re-adds us.  (The paper leaves false positives to the slow
            # §4.6 refresh cycle; this is the immediate version.)
            if ctx.alive and event.kind is EventKind.LEAVE and event.seq >= ctx.seq:
                ctx.seq = event.seq
                self.report_event(ctx.make_event(EventKind.REFRESH), trace=msg.trace)
            return
        if ctx.seen_events.get(subject_value, -1) >= event.seq:
            # Already carried this event: our subtree is covered, so the
            # duplicate can be acknowledged straight away.
            self.runtime.send(
                msg.make_reply("mcast-ack", size_bits=ctx.config.ack_bits)
            )
            ctx.stats.mcast_duplicates += 1
            obs.registry.inc(m.MCAST_DUPLICATES)
            return
        ctx.seen_events[subject_value] = event.seq
        # Strike only targeted direct sends (start_bit past the id width
        # means zero fanout — an accusation aimed at us, the eclipse
        # shape), never tree relays forwarding someone else's event.
        self._believe(
            event,
            msg.src,
            strike=start_bit >= ctx.node_id.bits,
            proceed=lambda: self.apply(event),
        )
        self._copy_to_recent_downloads(event, self.runtime.now)
        hop: Optional[OpenSpan] = None
        if obs.enabled:
            depth = msg.trace.depth if isinstance(msg.trace, SpanRef) else 0
            hop = obs.start(
                "mcast.hop",
                self.runtime.now,
                parent=msg.trace,
                kind=event.kind.name,
                subject=str(event.subject_address),
                depth=depth,
                start_bit=start_bit,
            )
            obs.registry.observe(m.MCAST_DEPTH, depth)
        # §5.1: a relay spends 1 s "receiving, calculating and sending".
        # The ack rides at the END of that window: acknowledging a fresh
        # multicast means accepting responsibility for the subtree, so a
        # relay that dies mid-processing leaves the send unacked and the
        # sender's retry -> remove -> redirect re-covers its range through
        # a replacement relay (ack-on-receipt silently lost the subtree).
        self.runtime.schedule(
            ctx.config.multicast_processing_delay,
            self._forward_and_ack,
            msg,
            event,
            start_bit,
            hop,
        )

    def _forward_and_ack(
        self,
        msg: Message,
        event: EventRecord,
        start_bit: int,
        span: Optional[OpenSpan] = None,
    ) -> None:
        ctx = self.ctx
        obs = ctx.obs
        if not ctx.alive:
            if span is not None:
                obs.end(span, self.runtime.now, "died")
            return
        self.runtime.send(msg.make_reply("mcast-ack", size_bits=ctx.config.ack_bits))
        trace = span.ref(span.attrs.get("depth", 0)) if span is not None else None
        fanout = self.forwarder.forward(event, start_bit, trace=trace)
        obs.registry.observe(m.MCAST_FANOUT, fanout)
        if span is not None:
            span.attrs["fanout"] = fanout
            obs.end(span, self.runtime.now)

    def _mcast_send(
        self,
        target: Pointer,
        event: EventRecord,
        next_bit: int,
        on_result: Callable[[bool], None],
        trace=None,
    ) -> None:
        ctx = self.ctx
        # The wire context: same trace, the sender's span as parent, the
        # receiver's tree depth (sender depth + 1).
        wire = (
            SpanRef(trace.trace_id, trace.span_id, trace.depth + 1)
            if isinstance(trace, SpanRef)
            else None
        )
        msg = Message(
            ctx.address,
            target.address,
            "mcast",
            payload=(event, next_bit),
            size_bits=ctx.config.event_message_bits,
            trace=wire,
        )
        self.runtime.request(
            msg, ctx.config.multicast_ack_timeout,
            self._mcast_acked, self._mcast_missed, on_result,
        )

    def _on_mcast_ack(self, _reply: Message, on_result: Callable[[bool], None]) -> None:
        on_result(True)

    def _on_mcast_timeout(self, on_result: Callable[[bool], None]) -> None:
        self.ctx.obs.registry.inc(m.MCAST_ACK_TIMEOUTS)
        on_result(False)

    # -- origination -------------------------------------------------------

    def start_multicast(self, event: EventRecord, trace=None) -> None:
        """Originate a multicast as a top node (root of the tree).

        ``trace`` links the origination to the operation that caused it
        (a served report, an obituary, our own leave); with no parent the
        root span starts a fresh trace.
        """
        ctx = self.ctx
        obs = ctx.obs
        ctx.seen_events[event.subject_id.value] = event.seq
        self.apply(event)
        self._copy_to_recent_downloads(event, self.runtime.now)
        root: Optional[OpenSpan] = None
        if obs.enabled:
            root = obs.start(
                "mcast.root",
                self.runtime.now,
                parent=trace,
                kind=event.kind.name,
                subject=str(event.subject_address),
                depth=0,
            )
            obs.registry.inc(m.MCAST_ORIGINATED)
        self.runtime.schedule(
            ctx.config.multicast_processing_delay, self._root_forward, event, root
        )

    def _root_forward(
        self, event: EventRecord, span: Optional[OpenSpan] = None
    ) -> None:
        ctx = self.ctx
        obs = ctx.obs
        if not ctx.alive and event.subject_id.value != ctx.node_id.value:
            if span is not None:
                obs.end(span, self.runtime.now, "died")
            return
        trace = span.ref(0) if span is not None else None
        fanout = self.forwarder.forward(event, 0, trace=trace)
        obs.registry.observe(m.MCAST_FANOUT, fanout)
        if span is not None:
            span.attrs["fanout"] = fanout
            obs.end(span, self.runtime.now)
        if (
            event.kind is EventKind.LEAVE
            and event.subject_id.value != ctx.node_id.value
        ):
            # Copy the obituary to the subject itself: unanswered if it is
            # really dead, refuted with a refresh if the failure detection
            # was a false positive (lost probe acks).  The copy is acked
            # and retried like any tree edge — it is the *only* message
            # that can reach a falsely-evicted node (once every list has
            # dropped it, no multicast tree targets it again), so losing
            # the single datagram would make the eviction permanent until
            # the §4.6 refresh cycle, hours later.
            self._copy_to_subject(event, ctx.config.multicast_attempts, trace)
        # Part-merge bridge: forward a copy to cross-part subscribers whose
        # eigenstring covers the subject.
        subscribers = ctx.bridge_subscribers
        for ptr in subscribers.pointers() if subscribers else ():
            if ptr.node_id.shares_prefix(event.subject_id, ptr.level):
                self._mcast_send(ptr, event, ctx.node_id.bits, lambda ok: None, trace)

    def _copy_to_subject(
        self, event: EventRecord, attempts_left: int, trace=None
    ) -> None:
        if attempts_left <= 0:
            return
        ctx = self.ctx
        wire = (
            SpanRef(trace.trace_id, trace.span_id, trace.depth + 1)
            if isinstance(trace, SpanRef)
            else None
        )
        msg = Message(
            ctx.address,
            event.subject_address,
            "mcast",
            payload=(event, ctx.node_id.bits),
            size_bits=ctx.config.event_message_bits,
            trace=wire,
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.multicast_ack_timeout,
            on_reply=lambda _reply: None,
            on_timeout=lambda: self._copy_to_subject(event, attempts_left - 1, trace),
        )

    # -- verify-before-believe (DESIGN §16) --------------------------------

    def _believe(
        self,
        event: EventRecord,
        src,
        strike: bool,
        proceed: Callable[[], None],
    ) -> None:
        """Gate a received event's *application* behind obituary
        verification.

        With ``config.obituary_verify`` off (the default), or for
        anything that is not a third-party LEAVE about a node we still
        hold, ``proceed()`` runs immediately — the paper's
        trust-every-message behavior, byte-identical spans included.

        Otherwise the failure detector probes the reported-dead subject
        first: silence confirms the obituary (``proceed()`` runs and the
        eviction happens); a probe ack refutes it (the event is dropped
        and, when ``strike`` is set, the immediate sender earns a strike
        toward quarantine).  ``strike`` is only set for senders that
        *accused* — report senders and targeted direct multicasts — never
        for honest tree relays carrying someone else's forgery.
        Concurrent accusations about one subject coalesce onto a single
        probe chain via ``ctx.obit_pending``.
        """
        ctx = self.ctx
        if (
            not ctx.config.obituary_verify
            or ctx.confirm_dead is None
            or event.kind is not EventKind.LEAVE
            or event.subject_id.value == ctx.node_id.value
        ):
            proceed()
            return
        if src is not None and ctx.obit_quarantine and src in ctx.obit_quarantine:
            ctx.obs.registry.inc(m.OBIT_QUARANTINE_DROPS)
            return
        held = ctx.peer_list.get(event.subject_id)
        if held is None and event.subject_id not in ctx.top_list:
            # Nothing this obituary could evict here; believing it is a
            # no-op and verification would be wasted probes.
            proceed()
            return
        subject = event.subject_id.value
        accuser = src if strike else None
        if ctx.obit_pending is None:
            ctx.obit_pending = {}
        pending = ctx.obit_pending.get(subject)
        if pending is not None:
            pending.append((accuser, proceed))
            return
        ctx.obit_pending[subject] = [(accuser, proceed)]
        ctx.obs.registry.inc(m.OBIT_VERIFICATIONS)
        ctx.confirm_dead(
            event.subject_id,
            event.subject_address,
            lambda dead: self._obit_settled(subject, dead),
        )

    def _obit_settled(self, subject: int, dead: bool) -> None:
        ctx = self.ctx
        waiters = ctx.obit_pending.pop(subject, [])
        if dead:
            ctx.obs.registry.inc(m.OBIT_CONFIRMED)
            for _accuser, proceed in waiters:
                proceed()
            return
        ctx.obs.registry.inc(m.OBIT_REFUTED)
        for accuser, _proceed in waiters:
            if accuser is None:
                continue
            if ctx.obit_strikes is None:
                ctx.obit_strikes = {}
            strikes = ctx.obit_strikes.get(accuser, 0) + 1
            ctx.obit_strikes[accuser] = strikes
            if strikes < ctx.config.quarantine_strikes:
                continue
            if ctx.obit_quarantine is None:
                ctx.obit_quarantine = set()
            if accuser not in ctx.obit_quarantine:
                ctx.obit_quarantine.add(accuser)
                ctx.obs.registry.inc(m.QUARANTINE_ADDITIONS)

    def apply(self, event: EventRecord) -> None:
        ctx = self.ctx
        now = self.runtime.now
        departed = None
        if event.kind is EventKind.LEAVE:
            departed = ctx.peer_list.get(event.subject_id)
        changed = apply_event(ctx.peer_list, event, now, owner_id=ctx.node_id)
        if changed:
            ctx.stats.events_applied += 1
            if departed is not None:
                ctx.estimator.observe_departure(departed, now)
        # Keep the top-node list's levels fresh.
        if event.subject_id in ctx.top_list:
            if event.kind is EventKind.LEAVE:
                ctx.top_list.remove(event.subject_id)
            else:
                ctx.top_list.merge([
                    Pointer(
                        node_id=event.subject_id,
                        address=event.subject_address,
                        level=event.subject_level,
                        attached_info=event.attached_info,
                        last_refresh=now,
                        last_event_seq=event.seq,
                    )
                ])

    def _copy_to_recent_downloads(self, event: EventRecord, now: float) -> None:
        """Copy an applied event to requesters we recently served a §4.3
        download (DESIGN.md §8).

        A joiner is in nobody's audience until its JOIN multicast has been
        applied network-wide, so an event whose dissemination completes
        inside that window never reaches it: the downloaded snapshot keeps
        e.g. a dead node's pointer that no one else holds — and since ring
        views now disagree, no one ever probes it on the joiner's behalf.
        Forwarding what we apply during the grace window closes the race.
        Called from the fresh-receipt sites (first sight of the event per
        ``seen_events``), not gated on whether the event changed our own
        list: a server that detected the failure itself removed the
        pointer *before* the obituary existed, yet its requester still
        needs the copy.  Copies are fire-and-forget ``event-copy``
        messages, NOT ``mcast``: an mcast receipt marks the event seen,
        and a seen event makes the receiver ack any later tree delivery
        as a duplicate *without forwarding* — a copy that entered
        ``seen_events`` would black-hole whatever subtree the real tree
        later routes through the joiner.
        """
        ctx = self.ctx
        if not ctx.recent_downloads:
            return
        grace = ctx.config.download_grace
        ctx.recent_downloads = [
            entry for entry in ctx.recent_downloads if now - entry[1] <= grace
        ]
        if not ctx.alive:
            return
        for address, _served in ctx.recent_downloads:
            if address == event.subject_address or address == ctx.address:
                continue
            self.runtime.send(
                Message(
                    ctx.address,
                    address,
                    "event-copy",
                    payload=event,
                    size_bits=ctx.config.event_message_bits,
                )
            )

    def on_event_copy(self, msg: Message) -> None:
        """Apply a download-grace copy.

        No ack, no relaying, no onward copying (copies do not chain, so
        mutual download servers cannot ping-pong one), and — critically —
        no ``seen_events`` marking: the real tree delivery, if one comes,
        must still look fresh so its subtree gets forwarded.  Re-applying
        is harmless because events are sequence-gated.
        """
        ctx = self.ctx
        event: EventRecord = msg.payload
        if event.subject_id.value == ctx.node_id.value:
            return
        if ctx.seen_events.get(event.subject_id.value, -1) >= event.seq:
            return
        self._believe(
            event, msg.src, strike=False, proceed=lambda: self.apply(event)
        )

    # -- report path -------------------------------------------------------

    def report_event(self, event: EventRecord, _attempt: int = 0, trace=None) -> None:
        """Deliver ``event`` to a top node for multicast (§4.1/§4.5).

        ``trace`` (optional span context) ties the report — and the
        multicast it triggers — to the causing operation's trace.
        """
        ctx = self.ctx
        obs = ctx.obs
        if event.subject_id.value == ctx.node_id.value:
            ctx.stats.events_originated += 1
        if ctx.is_top:
            # A top node is its own multicast root (this also covers a top
            # node announcing its own leave: alive is already False then).
            self.start_multicast(event, trace=trace)
            return
        top = ctx.top_list.choose(ctx.rng)
        if top is None:
            self._report_fallback(event, _attempt, trace)
            return
        ctx.stats.reports_sent += 1
        obs.registry.inc(m.REPORT_SENT)
        span: Optional[OpenSpan] = None
        if obs.enabled:
            span = obs.start(
                "report",
                self.runtime.now,
                parent=trace,
                kind=event.kind.name,
                subject=str(event.subject_address),
                top=str(top.address),
                attempt=_attempt,
            )
        msg = Message(
            ctx.address,
            top.address,
            "report",
            payload=event,
            size_bits=ctx.config.event_message_bits,
            trace=span.ref() if span is not None else trace,
        )

        def replied(reply: Message) -> None:
            if span is not None:
                obs.end(span, self.runtime.now)
            ctx.top_list.merge(
                [p for p in reply.payload if p.node_id.value != ctx.node_id.value]
            )

        def timed_out() -> None:
            if span is not None:
                obs.end(span, self.runtime.now, "timeout")
            self._report_retry(event, top, _attempt, trace)

        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=replied,
            on_timeout=timed_out,
        )

    def _report_retry(
        self, event: EventRecord, dead_top: Pointer, attempt: int, trace=None
    ) -> None:
        ctx = self.ctx
        ctx.top_list.remove(dead_top.node_id)
        if attempt + 1 >= 3 * ctx.config.top_list_size:
            ctx.stats.reports_failed += 1
            ctx.obs.registry.inc(m.REPORT_FAILED)
            return
        self.report_event(event, _attempt=attempt + 1, trace=trace)

    def _report_fallback(self, event: EventRecord, attempt: int, trace=None) -> None:
        """§4.5: when every top-node pointer is stale, ask a peer for its
        top-node list as a substitution."""
        ctx = self.ctx
        if attempt >= 3 * ctx.config.top_list_size:
            ctx.stats.reports_failed += 1
            ctx.obs.registry.inc(m.REPORT_FAILED)
            return
        peers = [p for p in ctx.peer_list if p.node_id.value != ctx.node_id.value]
        if not peers:
            ctx.stats.reports_failed += 1
            ctx.obs.registry.inc(m.REPORT_FAILED)
            return
        peer = peers[int(ctx.rng.integers(0, len(peers)))]
        msg = Message(
            ctx.address, peer.address, "get-topnodes", size_bits=ctx.config.ack_bits
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: (
                ctx.top_list.merge(
                    [p for p in reply.payload if p.node_id.value != ctx.node_id.value]
                ),
                self.report_event(event, _attempt=attempt + 1, trace=trace),
            ),
            on_timeout=lambda: self._report_fallback(event, attempt + 1, trace),
        )

    # -- serving -----------------------------------------------------------

    def on_report(self, msg: Message) -> None:
        ctx = self.ctx
        obs = ctx.obs
        event: EventRecord = msg.payload
        ctx.stats.reports_served += 1
        obs.registry.inc(m.REPORT_SERVED)
        if not ctx.is_top:
            # Stale top-node pointer at the reporter: we are no longer a
            # top node.  Ack with our *current* top-node list so the
            # reporter heals (§4.5), and relay the event upward ourselves.
            piggyback = ctx.top_list.pointers()
            self.runtime.send(
                msg.make_reply(
                    "report-ack",
                    payload=piggyback,
                    size_bits=max(1, len(piggyback)) * ctx.config.pointer_bits,
                )
            )
            subject_value = event.subject_id.value
            if (
                ctx.relayed_reports.get(subject_value, -1) < event.seq
                and ctx.seen_events.get(subject_value, -1) < event.seq
            ):
                # Mark *relayed* (not seen!) before relaying, so cycles
                # through other stale "tops" terminate at the first
                # revisit while the eventual tree delivery still looks
                # fresh and gets forwarded — we are ourselves an interior
                # tree node for this event's audience.
                ctx.relayed_reports[subject_value] = event.seq

                def apply_and_relay() -> None:
                    self.apply(event)
                    relay: Optional[OpenSpan] = None
                    if obs.enabled:
                        relay = obs.instant(
                            "report.relay",
                            self.runtime.now,
                            parent=msg.trace,
                            kind=event.kind.name,
                            subject=str(event.subject_address),
                        )
                    self.report_event(
                        event, trace=relay.ref() if relay is not None else msg.trace
                    )

                self._believe(event, msg.src, strike=True, proceed=apply_and_relay)
            return
        # Piggyback t-1 pointers to top nodes of the reporter's part (§4.5):
        # our own group members (we are a top node of that part).
        piggyback = [
            p for p in ctx.peer_list.group_members() if p.node_id.value != ctx.node_id.value
        ][: ctx.config.top_list_size - 1] + [ctx.self_pointer()]
        self.runtime.send(
            msg.make_reply(
                "report-ack",
                payload=piggyback,
                size_bits=len(piggyback) * ctx.config.pointer_bits,
            )
        )
        if ctx.seen_events.get(event.subject_id.value, -1) >= event.seq:
            return

        def disseminate() -> None:
            # Re-check: a duplicate report may have multicast this event
            # while the verification probes were in flight.
            if ctx.seen_events.get(event.subject_id.value, -1) >= event.seq:
                return
            self.start_multicast(event, trace=msg.trace)

        self._believe(event, msg.src, strike=True, proceed=disseminate)

    def on_get_topnodes(self, msg: Message) -> None:
        ctx = self.ctx
        self.runtime.send(
            msg.make_reply(
                "topnodes",
                payload=ctx.top_list.pointers(),
                size_bits=max(1, len(ctx.top_list)) * ctx.config.pointer_bits,
            )
        )

    def on_bridge_subscribe(self, msg: Message) -> None:
        ctx = self.ctx
        ptr, propagate = msg.payload
        subscribers = ctx.bridge_subscribers
        if subscribers is None:
            subscribers = ctx.bridge_subscribers = TopNodeList(
                ctx.config.top_list_size, ctx.addresses
            )
        fresh = ptr.node_id not in subscribers
        # The rows take the pointer's fields, never the object (with an
        # in-memory transport ``ptr`` is the subscriber's live Pointer).
        subscribers.merge([ptr])
        self.runtime.send(msg.make_reply("bridge-ack", size_bits=ctx.config.ack_bits))
        if propagate and fresh:
            # Every top of this part roots multicasts, so the whole top
            # group must carry the subscription (one idempotent hop; group
            # members do not re-propagate).
            for peer in ctx.peer_list.group_members():
                if peer.node_id.value == ctx.node_id.value:
                    continue
                self.runtime.send(
                    Message(
                        ctx.address,
                        peer.address,
                        "bridge-subscribe",
                        payload=(ptr, False),
                        size_bits=ctx.config.pointer_bits,
                    )
                )
