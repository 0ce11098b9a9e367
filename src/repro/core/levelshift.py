"""LevelShiftService: the autonomic level controller's commit paths.

The §2 controller decides *when* to shift (``LevelController.decide`` on
the measured input rate); this service owns *how*.  Lowering (l → l+1,
smaller window) commits locally — the node already holds every pointer
the shorter list needs — but may split a part, handing the diverging
group members to the cross-part list (DESIGN.md §8).  Raising (l → l−1,
bigger window) reuses the §4.3 ``download`` path to fetch the pointers
the longer prefix was hiding, and may merge parts, bridging into the
sibling part's multicast stream until it merges too.
"""

from __future__ import annotations

from typing import Optional

from repro.core.context import NodeContext
from repro.core.events import EventKind
from repro.core.levels import LevelDecision
from repro.core.nodeid import eigenstring
from repro.core.pointer import Pointer
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.obs import metrics as m
from repro.obs.trace import OpenSpan


class LevelShiftService:
    """§2 + §4.3: periodic level checks, lowering, raising, part merge."""

    def __init__(self, runtime: NodeRuntime, ctx: NodeContext):
        self.runtime = runtime
        self.ctx = ctx

    def start_level_loop(self) -> None:
        self.ctx.arm("level", self.ctx.config.level_check_interval, self.level_tick)

    def level_tick(self) -> None:
        ctx = self.ctx
        if not ctx.alive:
            return
        measured = ctx.endpoint.ewma_in.rate(self.runtime.now)
        decision = ctx.controller.decide(ctx.level, measured)
        if decision is LevelDecision.LOWER:
            self.commit_lower()
        elif decision is LevelDecision.RAISE and not ctx.raising:
            new_level = max(ctx.level - 1, 0)
            if not ctx.is_top and new_level < ctx.part_level():
                new_level = ctx.part_level()  # clamp: become a top first
            if new_level < ctx.level:
                self.initiate_raise(new_level)
        self.start_level_loop()

    def commit_lower(self) -> None:
        ctx = self.ctx
        if ctx.level >= ctx.node_id.bits:
            return
        old_level = ctx.level
        was_top = ctx.is_top
        group = [
            p
            for p in ctx.peer_list.group_members()
            if p.node_id.value != ctx.node_id.value
        ]
        # Group members that still share our (longer) prefix stay in our
        # part and — being at the old, stronger level — are now our tops.
        same_side = [
            p for p in group if p.node_id.bit(old_level) == ctx.node_id.bit(old_level)
        ]
        siblings = [
            p for p in group if p.node_id.bit(old_level) != ctx.node_id.bit(old_level)
        ]
        ctx.level = old_level + 1
        ctx.peer_list.retarget(ctx.level)
        ctx.stats.level_lowers += 1
        ctx.obs.registry.inc(m.LEVEL_LOWER)
        shift = None
        if ctx.obs.enabled:
            shift = ctx.obs.instant(
                "level.lower",
                self.runtime.now,
                old_level=old_level,
                new_level=ctx.level,
                was_top=was_top,
            )
        if was_top and same_side:
            # We were a top node, so our eigenstring group was the set of
            # our part's tops; the members staying on our side of the new
            # bit are now strictly stronger than us — our new tops.
            ctx.is_top = False
            ctx.top_list.merge(
                [p.copy(last_refresh=self.runtime.now) for p in same_side]
            )
        # A non-top node keeps its existing top-node list (its group
        # members were ordinary peers, not tops); a top node with no
        # same-side group members stays the top of the split-off part.
        if was_top and ctx.is_top and siblings:
            # The part split at this level: the diverging members are the
            # sibling part's tops (DESIGN.md §8).
            sibling_prefix = eigenstring(siblings[0].node_id, ctx.level)
            ctx.cross_parts.merge(
                sibling_prefix,
                [p.copy(last_refresh=self.runtime.now) for p in siblings],
            )
        ctx.peer_list.update(ctx.node_id, level=ctx.level)
        ctx.report_event(
            ctx.make_event(EventKind.LEVEL_CHANGE),
            trace=shift.ref() if shift is not None else None,
        )

    def initiate_raise(self, new_level: int) -> None:
        """§4.3: download the missing pointers from a stronger node, then
        commit the level change and report it."""
        ctx = self.ctx
        if new_level >= ctx.level or ctx.raising:
            return
        source = self._raise_source(new_level)
        if source is None:
            return
        ctx.raising = True
        span: Optional[OpenSpan] = None
        if ctx.obs.enabled:
            span = ctx.obs.start(
                "level.raise",
                self.runtime.now,
                old_level=ctx.level,
                new_level=new_level,
                source=str(source.address),
            )
        msg = Message(
            ctx.address,
            source.address,
            "download",
            payload=(ctx.node_id, new_level),
            size_bits=ctx.config.ack_bits,
            trace=span.ref() if span is not None else None,
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: self._commit_raise(
                new_level, source, reply.payload, span
            ),
            on_timeout=lambda: self._abort_raise(source, span),
        )

    def _raise_source(self, new_level: int) -> Optional[Pointer]:
        ctx = self.ctx
        # A node whose eigenstring is a prefix of our id with level <= new
        # level covers everything we need.
        stronger = [
            p
            for p in ctx.peer_list
            if p.level <= new_level
            and p.node_id.value != ctx.node_id.value
            and p.node_id.shares_prefix(ctx.node_id, p.level)
        ]
        if stronger:
            return ctx.peer_list.strongest(stronger)
        if not ctx.is_top:
            tops = ctx.top_list.pointers()
            usable = [p for p in tops if p.level <= new_level]
            if usable:
                return min(usable, key=lambda p: (p.level, p.node_id.value))
            return None
        # Part merge: pull the sibling part from a cross-part top node.
        sibling_prefix = ctx.node_id.prefix_bits(ctx.level - 1) + str(
            1 - ctx.node_id.bit(ctx.level - 1)
        )
        for prefix in ctx.cross_parts.parts():
            if prefix.startswith(sibling_prefix) or sibling_prefix.startswith(prefix):
                candidates = ctx.cross_parts.for_part(prefix)
                if candidates:
                    return candidates[0]
        return None

    def _commit_raise(
        self,
        new_level: int,
        source: Pointer,
        payload: tuple,
        span: Optional[OpenSpan] = None,
    ) -> None:
        ctx = self.ctx
        ctx.raising = False
        if not ctx.alive or new_level >= ctx.level:
            if span is not None:
                ctx.obs.end(span, self.runtime.now, "aborted")
            return
        pointers, tops = payload
        was_top = ctx.is_top
        ctx.level = new_level
        ctx.peer_list.retarget(new_level)
        for p in pointers:
            if (
                p.node_id.value != ctx.node_id.value
                and p.node_id.shares_prefix(ctx.node_id, new_level)
            ):
                if ctx.peer_list.get(p.node_id) is None:
                    ctx.peer_list.add(p.copy(last_refresh=self.runtime.now))
        ctx.peer_list.update(ctx.node_id, level=ctx.level)
        ctx.stats.level_raises += 1
        ctx.obs.registry.inc(m.LEVEL_RAISE)
        part_level = ctx.top_list.min_level()
        if part_level is None or new_level <= part_level:
            ctx.is_top = True
        if was_top and source.level >= new_level:
            # We just merged above our old part: subscribe to the sibling
            # part's event stream through its top node (bridge); the top
            # propagates the subscription across its group.
            sub = Message(
                ctx.address,
                source.address,
                "bridge-subscribe",
                payload=(ctx.self_pointer(), True),
                size_bits=ctx.config.pointer_bits,
                trace=span.ref() if span is not None else None,
            )
            self.runtime.send(sub)
        if span is not None:
            ctx.obs.end(span, self.runtime.now)
        ctx.report_event(
            ctx.make_event(EventKind.LEVEL_CHANGE),
            trace=span.ref() if span is not None else None,
        )

    def _abort_raise(self, source: Pointer, span: Optional[OpenSpan] = None) -> None:
        self.ctx.raising = False
        if span is not None:
            self.ctx.obs.end(span, self.runtime.now, "timeout")
        self.ctx.peer_list.remove(source.node_id)
