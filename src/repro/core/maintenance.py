"""MaintenanceService: the §4.6 refresh/expiry accuracy machinery.

Two loops per node, each on a fixed period and each re-arming itself
with one ``runtime.schedule`` per tick (the kernel has no periodic
timer):

* **refresh** — re-announce our own pointer every ``refresh_multiple *
  LT_l`` seconds (lifetime-scaled, via
  :class:`~repro.core.refresh.RefreshManager`) so audience members can
  tell a silent-but-alive peer from a silently departed one;
* **sweep** — expire pointers not refreshed within ``expiry_multiple *
  LT_m`` of their own level's expected lifetime.

A third, opt-in loop (``config.claim_audit_interval > 0``) is the claim
audit of DESIGN §16: levels are self-declared, and a node that *lies*
about being strong (low level) poisons every audience set and ring view
that believes it.  The audit cross-checks the strongest claim we hold
against observed behavior — a genuinely level-``c`` node (``c`` below
our own ``l``) covers a strictly wider prefix, so downloading its list
at its claimed level must return at least :data:`CLAIM_AUDIT_MARGIN`
(1.5) times as many pointers as we hold, at least one of them outside
our own level-``l`` prefix.  Liars are demoted (their peer-list row's
level reset to ours, and the pointer dropped from the top-node list) so
the ring/audience geometry heals.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.context import NodeContext
from repro.core.events import EventKind
from repro.core.pointer import Pointer
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.obs import metrics as m

#: How much larger (×) a stronger node's returned list must be than the
#: auditor's own before the claim audit's size check passes.
CLAIM_AUDIT_MARGIN = 1.5


class MaintenanceService:
    """§4.6 refresh + expiry-sweep loops (+ the opt-in claim audit)."""

    def __init__(self, runtime: NodeRuntime, ctx: NodeContext):
        self.runtime = runtime
        self.ctx = ctx

    def start(self) -> None:
        ctx = self.ctx
        self._arm("refresh", ctx.refresh_mgr.refresh_due_interval(ctx.level), self.refresh_tick)
        self._arm("sweep", ctx.config.level_check_interval, self.sweep_tick)
        if ctx.config.claim_audit_interval > 0:
            self._arm("audit", ctx.config.claim_audit_interval, self.audit_tick)

    def _arm(self, loop: str, delay: float, tick: Callable[[], None]) -> None:
        self.ctx.track(loop, self.runtime.schedule(delay, tick))

    def refresh_tick(self) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        ctx.stats.refreshes_sent += 1
        ctx.refresh_mgr.refreshes_sent += 1
        ctx.obs.registry.inc(m.REFRESH_SENT)
        root = None
        if ctx.obs.enabled:
            root = ctx.obs.instant("refresh", self.runtime.now, level=ctx.level)
        ctx.report_event(
            ctx.make_event(EventKind.REFRESH),
            trace=root.ref() if root is not None else None,
        )
        self._arm("refresh", ctx.refresh_mgr.refresh_due_interval(ctx.level), self.refresh_tick)

    def sweep_tick(self) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        expired = ctx.refresh_mgr.sweep(ctx.peer_list, self.runtime.now)
        if expired:
            ctx.obs.registry.inc(m.SWEEP_EXPIRED, len(expired))
        for p in expired:
            if p.node_id.value == ctx.node_id.value:
                # Never expire ourselves.
                ctx.peer_list.add(ctx.self_pointer())
        self._arm("sweep", ctx.config.level_check_interval, self.sweep_tick)

    # -- claim auditing (DESIGN §16) ---------------------------------------

    def audit_tick(self) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        suspect = self._strongest_claim()
        if suspect is not None:
            self._audit(suspect)
        self._arm("audit", ctx.config.claim_audit_interval, self.audit_tick)

    def _strongest_claim(self) -> Optional[Pointer]:
        """The held pointer making the strongest (lowest-level) claim
        below our own level — deterministically the minimum of
        ``(level, id)`` so repeated audits converge on the same suspect
        until it is demoted or confirmed."""
        ctx = self.ctx
        best: Optional[Pointer] = None
        for p in list(ctx.peer_list) + list(ctx.top_list.pointers()):
            if p.node_id.value == ctx.node_id.value or p.level >= ctx.level:
                continue
            if best is None or (p.level, p.node_id.value) < (
                best.level,
                best.node_id.value,
            ):
                best = p
        return best

    def _audit(self, claim: Pointer) -> None:
        """Download the claimant's list at its *claimed* level and judge
        the claim by what comes back.  A level query would be the obvious
        cross-check, but a liar answers it with the same lie; the
        download is behavioral evidence it cannot fake without actually
        holding the wider list."""
        ctx = self.ctx
        ctx.obs.registry.inc(m.AUDIT_CHECKS)
        span = None
        if ctx.obs.enabled:
            span = ctx.obs.start(
                "audit",
                self.runtime.now,
                subject=str(claim.address),
                claimed=claim.level,
            )
        own_size = len(ctx.peer_list)
        msg = Message(
            ctx.address,
            claim.address,
            "download",
            payload=(claim.node_id, claim.level),
            size_bits=ctx.config.ack_bits,
            trace=span.ref() if span is not None else None,
        )

        def replied(reply: Message) -> None:
            matching, _tops = reply.payload
            self._judge(claim, matching, own_size, span)

        def timed_out() -> None:
            # Silence is not proof of lying (the §4.1 ring handles the
            # dead); the next tick re-audits whoever then claims most.
            if span is not None:
                ctx.obs.end(span, self.runtime.now, "timeout")

        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=replied,
            on_timeout=timed_out,
        )

    def _judge(self, claim: Pointer, matching, own_size: int, span) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        # A genuine level-c node (c < our l) holds every member of a
        # strictly wider prefix: its list must be meaningfully larger
        # than ours AND contain members outside our own level-l prefix.
        # A liar whose true coverage is just our group returns ~our list.
        outside = any(
            not p.node_id.shares_prefix(ctx.node_id, ctx.level)
            for p in matching
            if p.node_id.value != ctx.node_id.value
        )
        big_enough = len(matching) >= CLAIM_AUDIT_MARGIN * max(1, own_size)
        if outside and big_enough:
            ctx.obs.registry.inc(m.AUDIT_PASSES)
            if span is not None:
                ctx.obs.end(span, self.runtime.now, "pass")
            return
        ctx.obs.registry.inc(m.AUDIT_DEMOTIONS)
        ctx.peer_list.update(claim.node_id, level=ctx.level)
        ctx.top_list.remove(claim.node_id)
        if span is not None:
            span.attrs["demoted_to"] = ctx.level
            ctx.obs.end(span, self.runtime.now, "demoted")
