"""FailureDetector: §4.1 ring probing.

Every node periodically probes its eigenstring-ring successor — *"the
node whose nodeId is just larger"* within its group.  After
``probe_misses_to_fail`` consecutive unanswered probes the successor is
declared dead: the detector removes the pointer, reports a LEAVE event
through the dissemination service, and immediately redirects probing to
the next neighbor (the paper's concurrent-failure story).

The probe period is fixed (``config.probe_interval``); the loop re-arms
its one timer handle per round (:meth:`NodeContext.arm`).  A probe's
reply and timeout callbacks are bound methods made once per detector,
and what one probe needs travels as request arguments, so a round
builds no closure (DESIGN.md §4, *Schedule discipline*).
"""

from __future__ import annotations

from typing import Optional

from repro.core.context import NodeContext
from repro.core.events import EventKind, EventRecord, obituary_seq
from repro.core.pointer import Pointer
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan


class FailureDetector:
    """The §4.1 probe loop over the failure-detection ring."""

    def __init__(self, runtime: NodeRuntime, ctx: NodeContext):
        self.runtime = runtime
        self.ctx = ctx
        # Request callbacks, bound once for every probe this node sends.
        self._ring_acked = self._on_ring_ack
        self._ring_missed = self._on_ring_timeout
        self._verify_acked = self._on_verify_ack
        self._verify_missed = self._on_verify_timeout
        self._confirm_acked = self._on_confirm_ack
        self._confirm_missed = self._on_confirm_timeout

    def start(self) -> None:
        self._schedule_probe(self.ctx.config.probe_interval)

    def on_probe(self, msg: Message) -> None:
        self.runtime.send(
            msg.make_reply("probe-ack", size_bits=self.ctx.config.ack_bits)
        )

    # -- probe loop --------------------------------------------------------

    def _schedule_probe(self, delay: float) -> None:
        self.ctx.arm("probe", delay, self._probe_tick)

    def _probe_tick(self) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        target = ctx.peer_list.ring_successor(ctx.node_id)
        if target is None:
            self._schedule_probe(ctx.config.probe_interval)
            return
        self._probe_target(target, ctx.config.probe_misses_to_fail)

    def _probe_target(
        self, target: Pointer, attempts_left: int, parent=None
    ) -> None:
        ctx = self.ctx
        obs = ctx.obs
        if not ctx.alive:
            return
        ctx.stats.probes_sent += 1
        span: Optional[OpenSpan] = None
        if obs.enabled:
            span = obs.start(
                "probe",
                self.runtime.now,
                parent=parent,
                target=str(target.address),
                attempts_left=attempts_left,
            )
        self._send_probe(
            target.address, span, self._ring_acked, self._ring_missed,
            target, attempts_left,
        )

    def _send_probe(
        self, address, span: Optional[OpenSpan], on_reply, on_timeout, *args
    ) -> None:
        """Probe ``address`` once; ``on_reply(reply, span, start, *args)``
        or ``on_timeout(span, start, *args)`` follows."""
        ctx = self.ctx
        msg = Message(
            ctx.address,
            address,
            "probe",
            size_bits=ctx.config.heartbeat_bits,
            trace=span.ref() if span is not None else None,
        )
        self.runtime.request(
            msg, ctx.config.probe_timeout, on_reply, on_timeout,
            span, self.runtime.now, *args,
        )

    def _probe_acked(self, span: Optional[OpenSpan], start: float) -> None:
        obs = self.ctx.obs
        obs.registry.observe(m.PROBE_RTT, self.runtime.now - start)
        if span is not None:
            obs.end(span, self.runtime.now)

    def _probe_timed_out(self, span: Optional[OpenSpan]) -> None:
        obs = self.ctx.obs
        obs.registry.inc(m.PROBE_TIMEOUTS)
        if span is not None:
            obs.end(span, self.runtime.now, "timeout")

    def _on_ring_ack(
        self, _reply: Message, span, start: float, _target, _attempts
    ) -> None:
        self._probe_acked(span, start)
        self._schedule_probe(self.ctx.config.probe_interval)

    def _on_ring_timeout(
        self, span, _start: float, target: Pointer, attempts_left: int
    ) -> None:
        self._probe_timed_out(span)
        self._probe_miss(target, attempts_left - 1, span)

    def _probe_miss(
        self, target: Pointer, attempts_left: int, parent=None
    ) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        if attempts_left > 0:
            self._probe_target(target, attempts_left, parent)
            return
        # Failure detected: report, remove, and immediately redirect the
        # probing to the next neighbor (§4.1's concurrent-failure story).
        self._declare_failed(target, parent)
        nxt = ctx.peer_list.ring_successor(ctx.node_id)
        if nxt is not None:
            self._probe_target(nxt, ctx.config.probe_misses_to_fail)
        else:
            self._schedule_probe(ctx.config.probe_interval)

    def _declare_failed(self, target: Pointer, parent=None) -> None:
        """Remove ``target`` and announce its obituary (§4.1)."""
        ctx = self.ctx
        obs = ctx.obs
        ctx.stats.failures_detected += 1
        obs.registry.inc(m.FAILURES_DETECTED)
        departed = ctx.peer_list.remove(target.node_id)
        if departed is not None:
            ctx.estimator.observe_departure(departed, self.runtime.now)
            # ``target`` is the entry as it was when probing began; the
            # obituary must outrun every event heard about it since.
            target = departed
        event = EventRecord(
            kind=EventKind.LEAVE,
            subject_id=target.node_id,
            subject_level=target.level,
            subject_address=target.address,
            seq=obituary_seq(target.last_event_seq),
            origin_time=self.runtime.now,
        )
        obit = None
        if obs.enabled:
            obit = obs.instant(
                "obituary",
                self.runtime.now,
                parent=parent,
                subject=str(target.address),
                via="ring-probe",
            )
        ctx.report_event(event, trace=obit.ref() if obit is not None else None)

    # -- reconciliation verification (crash recovery) ----------------------

    def verify(self, pointers: list) -> None:
        """Actively probe ``pointers`` outside the ring cadence.

        Used after a crash-recovery rejoin for cached peer-list entries
        that the downloaded snapshot did *not* confirm: each is probed
        ``probe_misses_to_fail`` times and, if silent, removed and
        announced like a ring detection — bounding how long a stale
        pointer carried over from the pre-crash cache can survive.
        """
        for pointer in pointers:
            self._verify_target(pointer, self.ctx.config.probe_misses_to_fail)

    def _verify_target(
        self, target: Pointer, attempts_left: int, parent=None
    ) -> None:
        ctx = self.ctx
        obs = ctx.obs
        if not ctx.alive or ctx.peer_list.get(target.node_id) is None:
            return
        ctx.stats.probes_sent += 1
        span: Optional[OpenSpan] = None
        if obs.enabled:
            span = obs.start(
                "probe.verify",
                self.runtime.now,
                parent=parent,
                target=str(target.address),
                attempts_left=attempts_left,
            )
        self._send_probe(
            target.address, span, self._verify_acked, self._verify_missed,
            target, attempts_left,
        )

    def _on_verify_ack(
        self, _reply: Message, span, start: float, _target, _attempts
    ) -> None:
        self._probe_acked(span, start)

    def _on_verify_timeout(
        self, span, _start: float, target: Pointer, attempts_left: int
    ) -> None:
        self._probe_timed_out(span)
        self._verify_miss(target, attempts_left - 1, span)

    def _verify_miss(
        self, target: Pointer, attempts_left: int, parent=None
    ) -> None:
        ctx = self.ctx
        if not ctx.alive or ctx.peer_list.get(target.node_id) is None:
            return
        if attempts_left > 0:
            self._verify_target(target, attempts_left, parent)
            return
        self._declare_failed(target, parent)

    # -- verify-before-believe (DESIGN §16) --------------------------------

    def confirm_dead(self, subject_id, subject_address, on_result) -> None:
        """Probe a reported-dead node before believing its obituary.

        ``on_result(True)`` fires if ``probe_misses_to_fail`` probes of
        ``probe_timeout`` each all go unanswered (the obituary is
        credible); ``on_result(False)`` fires on the first probe ack
        (the subject is demonstrably alive and the obituary forged or
        stale).  Exactly one of the two fires unless this node dies
        mid-verification.
        """
        self._confirm_target(
            subject_id, subject_address,
            self.ctx.config.probe_misses_to_fail, on_result,
        )

    def _confirm_target(
        self, subject_id, subject_address, attempts_left: int, on_result
    ) -> None:
        ctx = self.ctx
        obs = ctx.obs
        if not ctx.alive:
            return
        ctx.stats.probes_sent += 1
        span: Optional[OpenSpan] = None
        if obs.enabled:
            span = obs.start(
                "probe.verify",
                self.runtime.now,
                target=str(subject_address),
                attempts_left=attempts_left,
                via="obituary",
            )
        self._send_probe(
            subject_address, span, self._confirm_acked, self._confirm_missed,
            subject_id, subject_address, attempts_left, on_result,
        )

    def _on_confirm_ack(
        self, _reply: Message, span, start: float, _id, _address, _attempts, on_result
    ) -> None:
        self._probe_acked(span, start)
        if self.ctx.alive:
            on_result(False)

    def _on_confirm_timeout(
        self, span, _start: float, subject_id, subject_address, attempts_left: int,
        on_result,
    ) -> None:
        self._probe_timed_out(span)
        if not self.ctx.alive:
            return
        if attempts_left > 1:
            self._confirm_target(subject_id, subject_address, attempts_left - 1, on_result)
        else:
            on_result(True)
