"""JoinService: the §4.3 joining handshake and warm-up.

Joining (§4.3) is a four-step handshake — find a top node of the part,
query its level and measured cost, download its peer list (which covers
any prefix of the joiner's), then multicast the JOIN event.  Warm-up
joins a few levels weaker than the estimate and raises in the background
(through :class:`~repro.core.levelshift.LevelShiftService`).  The
service also answers the assistance queries other nodes' handshakes send
us: ``get-top``, ``level-query``, and ``download``.

Resilience (``config.join_retry_attempts``): a handshake step that times
out restarts the whole handshake after exponential backoff; a *download*
timeout first fails over to alternate top nodes already learned into the
top-node list before burning a retry.  Crash recovery
(``ctx.recovering``): the download is reconciled against the stale cached
peer list instead of replacing it — cached pointers the snapshot does not
confirm are kept but handed to the verification hook (the failure
detector probes them and evicts the truly dead with obituaries).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Optional

from repro.core.admission import pow_cost_seconds, solve_pow, verify_pow
from repro.core.analytic import estimate_join_level
from repro.core.context import NodeContext
from repro.core.events import EventKind
from repro.core.levelshift import LevelShiftService
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.obs import metrics as m
from repro.obs.trace import Span


class JoinService:
    """§4.3: handshake + warm-up, and join assistance."""

    def __init__(
        self,
        runtime: NodeRuntime,
        ctx: NodeContext,
        levels: LevelShiftService,
        on_joined: Callable[[], None],
        verify_stale: Optional[Callable[[List[Pointer]], None]] = None,
    ):
        self.runtime = runtime
        self.ctx = ctx
        #: Warm-up raises go through the level-shift commit path.
        self.levels = levels
        #: Coordinator hook: start the protocol loops once state installs.
        self._on_joined = on_joined
        #: Coordinator hook: actively probe reconciled-but-unconfirmed
        #: pointers after a crash-recovery rejoin (FailureDetector.verify).
        self._verify_stale = verify_stale if verify_stale is not None else (lambda _p: None)
        #: Open "join" span while a handshake is in flight (one per node at
        #: a time); the JOIN report traces back to it.
        self._join_span: Optional[Span] = None
        self._join_started: float = 0.0

    # ------------------------------------------------------------------
    # the joining handshake (§4.3)
    # ------------------------------------------------------------------

    def join_via(
        self,
        bootstrap_address: Hashable,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Run the §4.3 joining handshake through ``bootstrap_address``."""
        inner = on_done if on_done is not None else (lambda ok: None)
        ctx = self.ctx
        obs = ctx.obs
        self._join_started = self.runtime.now
        if obs.enabled:
            self._join_span = obs.start(
                "join",
                self.runtime.now,
                bootstrap=str(bootstrap_address),
                recovering=ctx.recovering,
            )

        def done(ok: bool) -> None:
            if ok:
                obs.registry.observe(
                    m.JOIN_LATENCY, self.runtime.now - self._join_started
                )
            else:
                obs.registry.inc(m.JOIN_FAILURES)
            if self._join_span is not None:
                obs.end(
                    self._join_span, self.runtime.now, "ok" if ok else "failed"
                )
                self._join_span = None
            inner(ok)

        self._attempt_join(bootstrap_address, done, attempt=0)

    def _attempt_join(
        self, bootstrap_address: Hashable, done: Callable[[bool], None], attempt: int
    ) -> None:
        ctx = self.ctx
        fail = self._make_fail(bootstrap_address, done, attempt)
        # Admission proof-of-work (DESIGN §16): grind the identity-bound
        # token and pay its modeled solve time as a delay before step 1.
        # The search restarts at nonce 0 each attempt (deterministic:
        # same identity, same token), so a retried handshake pays the
        # grinding time again — retries are not free accusations.
        payload: Any = ctx.node_id
        delay = 0.0
        if ctx.config.join_pow_bits > 0:
            nonce, attempts = solve_pow(ctx.node_id.value, ctx.config.join_pow_bits)
            payload = (ctx.node_id, nonce)
            delay = pow_cost_seconds(attempts, ctx.config.join_pow_hash_rate)
            ctx.obs.registry.observe(m.JOIN_POW_COST, delay)
        if delay > 0:
            self.runtime.schedule(
                delay, self._send_get_top, bootstrap_address, payload, done, fail
            )
        else:
            self._send_get_top(bootstrap_address, payload, done, fail)

    def _send_get_top(
        self,
        bootstrap_address: Hashable,
        payload: Any,
        done: Callable[[bool], None],
        fail: Callable[[], None],
    ) -> None:
        ctx = self.ctx
        # Step 1: find a top node of our part.
        msg = Message(
            ctx.address,
            bootstrap_address,
            "get-top",
            payload=payload,
            size_bits=ctx.config.ack_bits,
            trace=self._handshake_trace(),
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: self._join_got_top(reply.payload, done, fail),
            on_timeout=fail,
        )

    def _handshake_trace(self):
        """Span context riding handshake messages (``None`` when obs off)."""
        return self._join_span.ref() if self._join_span is not None else None

    def _make_fail(
        self, bootstrap_address: Hashable, done: Callable[[bool], None], attempt: int
    ) -> Callable[[], None]:
        """A step-failure continuation: retry the whole handshake with
        exponential backoff until ``join_retry_attempts`` is exhausted."""
        ctx = self.ctx

        def fail() -> None:
            if attempt >= ctx.config.join_retry_attempts:
                done(False)
                return
            delay = ctx.config.report_timeout * (
                ctx.config.join_retry_backoff**attempt
            )
            self.runtime.schedule(
                delay, self._attempt_join, bootstrap_address, done, attempt + 1
            )

        return fail

    def _join_got_top(
        self,
        top_ptr: Optional[Pointer],
        done: Callable[[bool], None],
        fail: Callable[[], None],
    ) -> None:
        ctx = self.ctx
        if top_ptr is None:
            fail()
            return
        # Step 2: ask the top node for its level and measured cost.
        msg = Message(
            ctx.address,
            top_ptr.address,
            "level-query",
            payload=ctx.node_id,
            size_bits=ctx.config.ack_bits,
            trace=self._handshake_trace(),
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: self._join_got_level(
                top_ptr, reply.payload, done, fail
            ),
            on_timeout=fail,
        )

    def _join_got_level(
        self,
        top_ptr: Pointer,
        info: tuple,
        done: Callable[[bool], None],
        fail: Callable[[], None],
    ) -> None:
        ctx = self.ctx
        top_level, top_cost, top_pointers = info
        target = estimate_join_level(top_level, top_cost, ctx.threshold_bps)
        # A joiner cannot start *stronger* than the top node that serves
        # its download — the downloaded list would not cover the wider
        # prefix (in a split system that would silently merge parts with a
        # half-empty list).  Clamp to the part's level; the autonomic
        # controller may raise (and properly download) later.
        target = min(max(target, top_level), ctx.node_id.bits)
        level = min(target + ctx.config.warmup_extra_levels, ctx.node_id.bits)
        ctx.top_list.merge(list(top_pointers) + [top_ptr])
        self._request_download(top_ptr, level, target, top_level, done, fail, tried=[])

    def _request_download(
        self,
        top_ptr: Pointer,
        level: int,
        target_level: int,
        top_level: int,
        done: Callable[[bool], None],
        fail: Callable[[], None],
        tried: List[Hashable],
    ) -> None:
        # Step 3: download the peer list (and top-node list) from the top
        # node, whose list covers any prefix of ours.
        ctx = self.ctx
        tried = tried + [top_ptr.address]
        msg = Message(
            ctx.address,
            top_ptr.address,
            "download",
            payload=(ctx.node_id, level),
            size_bits=ctx.config.ack_bits,
            trace=self._handshake_trace(),
        )
        self.runtime.request(
            msg,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: self._join_got_download(
                level, target_level, top_level, reply.payload, done
            ),
            on_timeout=lambda: self._download_failover(
                level, target_level, top_level, done, fail, tried
            ),
        )

    def _download_failover(
        self,
        level: int,
        target_level: int,
        top_level: int,
        done: Callable[[bool], None],
        fail: Callable[[], None],
        tried: List[Hashable],
    ) -> None:
        """A download timed out: fail over to an alternate top node from
        the top-node list (learned in steps 1-2) before burning a full
        handshake retry."""
        ctx = self.ctx
        alternates = [p for p in ctx.top_list.pointers() if p.address not in tried]
        if not alternates:
            fail()
            return
        alt = alternates[int(ctx.rng.integers(0, len(alternates)))]
        self._request_download(alt, level, target_level, top_level, done, fail, tried)

    def _join_got_download(
        self,
        level: int,
        target_level: int,
        top_level: int,
        payload: tuple,
        done: Callable[[bool], None],
    ) -> None:
        ctx = self.ctx
        pointers, top_pointers = payload
        recovering = ctx.recovering
        ctx.recovering = False
        # Crash recovery: the cached (pre-crash) peer list is reconciled
        # against the snapshot, not discarded — entries the snapshot also
        # carries are refreshed below; the rest are kept but must be
        # verified (they may have died while we were down).
        cached = {p.node_id.value: p for p in ctx.peer_list} if recovering else {}
        ctx.level = level
        ctx.peer_list.retarget(level)
        ctx.peer_list.add(ctx.self_pointer())
        downloaded = set()
        for p in pointers:
            if p.node_id.value != ctx.node_id.value and p.node_id.shares_prefix(
                ctx.node_id, level
            ):
                downloaded.add(p.node_id.value)
                ctx.peer_list.add(p.copy(last_refresh=self.runtime.now))
        ctx.top_list.merge(list(top_pointers))
        ctx.is_top = level <= top_level
        ctx.alive = True
        self._on_joined()
        # Step 4: multicast the joining event around the audience set.
        ctx.report_event(ctx.make_event(EventKind.JOIN), trace=self._handshake_trace())
        done(True)
        if recovering:
            unconfirmed = [
                ctx.peer_list.get(p.node_id)
                for value, p in cached.items()
                if value not in downloaded and value != ctx.node_id.value
            ]
            # retarget() may have dropped out-of-prefix cache entries.
            self._verify_stale([p for p in unconfirmed if p is not None])
        # Warm-up (§4.3): raise to the estimated level in the background.
        if level > target_level:
            self.runtime.schedule(0.0, self._warmup_raise, target_level)

    def _warmup_raise(self, target_level: int) -> None:
        ctx = self.ctx
        if not ctx.alive or ctx.level <= target_level:
            return
        self.levels.initiate_raise(ctx.level - 1)
        # Keep raising until the warm-up target is reached.
        self.runtime.schedule(
            ctx.config.report_timeout, self._warmup_raise, target_level
        )

    # ------------------------------------------------------------------
    # join assistance (the serving side of the handshake)
    # ------------------------------------------------------------------

    def on_get_top(self, msg: Message) -> None:
        ctx = self.ctx
        joiner_id: NodeId
        nonce: Optional[int] = None
        if isinstance(msg.payload, tuple):
            joiner_id, nonce = msg.payload
        else:
            joiner_id = msg.payload
        # Admission gates (DESIGN §16).  Both drop silently: the joiner's
        # §4.3 backoff-and-retry is the designed reaction, and an error
        # reply would hand an attacker a free oracle.
        if ctx.config.join_pow_bits > 0 and (
            nonce is None
            or not verify_pow(joiner_id.value, nonce, ctx.config.join_pow_bits)
        ):
            ctx.obs.registry.inc(m.JOIN_POW_REJECTED)
            return
        if ctx.config.join_throttle_interval > 0:
            if (
                self.runtime.now - ctx.last_join_served
                < ctx.config.join_throttle_interval
            ):
                ctx.obs.registry.inc(m.JOIN_THROTTLED)
                return
            ctx.last_join_served = self.runtime.now
        ctx.stats.joins_assisted += 1
        ctx.obs.registry.inc(m.JOIN_ASSISTS)
        if ctx.obs.enabled:
            ctx.obs.instant(
                "join.serve.get-top",
                self.runtime.now,
                parent=msg.trace,
                joiner=str(msg.src),
            )
        same_part = joiner_id.shares_prefix(ctx.node_id, ctx.part_level())
        if same_part:
            if ctx.is_top:
                self.runtime.send(
                    msg.make_reply(
                        "top-ptr",
                        payload=ctx.self_pointer(),
                        size_bits=ctx.config.pointer_bits,
                    )
                )
                return
            tops = ctx.top_list.pointers()
            payload = tops[int(ctx.rng.integers(0, len(tops)))] if tops else None
            self.runtime.send(
                msg.make_reply(
                    "top-ptr", payload=payload, size_bits=ctx.config.pointer_bits
                )
            )
            return
        # Cross-part (§4.4): a top node consults its cross-part list; a
        # plain node relays the question to a top node of its own part.
        if ctx.is_top:
            candidates = ctx.cross_parts.find_for_id(joiner_id)
            payload = (
                candidates[int(ctx.rng.integers(0, len(candidates)))]
                if candidates
                else None
            )
            self.runtime.send(
                msg.make_reply(
                    "top-ptr", payload=payload, size_bits=ctx.config.pointer_bits
                )
            )
            return
        tops = ctx.top_list.pointers()
        if not tops:
            self.runtime.send(
                msg.make_reply("top-ptr", payload=None, size_bits=ctx.config.ack_bits)
            )
            return
        relay_to = tops[int(ctx.rng.integers(0, len(tops)))]
        # Forward the original payload (id + any admission token): the
        # relay target re-verifies the proof-of-work for itself.
        inner = Message(
            ctx.address,
            relay_to.address,
            "get-top",
            payload=msg.payload,
            size_bits=ctx.config.ack_bits,
        )
        self.runtime.request(
            inner,
            timeout=ctx.config.report_timeout,
            on_reply=lambda reply: self.runtime.send(
                msg.make_reply(
                    "top-ptr", payload=reply.payload, size_bits=ctx.config.pointer_bits
                )
            ),
            on_timeout=lambda: self.runtime.send(
                msg.make_reply("top-ptr", payload=None, size_bits=ctx.config.ack_bits)
            ),
        )

    def on_level_query(self, msg: Message) -> None:
        ctx = self.ctx
        if ctx.obs.enabled:
            ctx.obs.instant(
                "join.serve.level-query",
                self.runtime.now,
                parent=msg.trace,
                joiner=str(msg.src),
            )
        piggyback = [
            p.copy() for p in ctx.top_list.pointers()[: ctx.config.top_list_size - 1]
        ]
        if ctx.is_top:
            piggyback = [
                p
                for p in ctx.peer_list.group_members()
                if p.node_id.value != ctx.node_id.value
            ][: ctx.config.top_list_size - 1]
        payload = (
            ctx.level,
            ctx.endpoint.ewma_in.rate(self.runtime.now),
            piggyback,
        )
        self.runtime.send(
            msg.make_reply(
                "level-info",
                payload=payload,
                size_bits=ctx.config.ack_bits
                + len(piggyback) * ctx.config.pointer_bits,
            )
        )

    def on_download(self, msg: Message) -> None:
        ctx = self.ctx
        requester_id, prefix_len = msg.payload
        ctx.stats.downloads_served += 1
        ctx.obs.registry.inc(m.DOWNLOADS_SERVED)
        if ctx.obs.enabled:
            ctx.obs.instant(
                "join.serve.download",
                self.runtime.now,
                parent=msg.trace,
                requester=str(msg.src),
                prefix_len=prefix_len,
            )
        if ctx.config.download_grace > 0:
            # Events we apply in the grace window are copied to the
            # requester — multicasts concurrent with the download would
            # otherwise miss it (it is in nobody's audience yet).
            ctx.recent_downloads.append((msg.src, self.runtime.now))
        matching = [
            p for p in ctx.peer_list if p.node_id.shares_prefix(requester_id, prefix_len)
        ]
        tops = [p.copy() for p in ctx.top_list.pointers()]
        if ctx.is_top:
            tops = [
                p
                for p in ctx.peer_list.group_members()
                if p.node_id.value != ctx.node_id.value
            ][: ctx.config.top_list_size - 1] + [ctx.self_pointer()]
        self.runtime.send(
            msg.make_reply(
                "download-data",
                payload=(matching, tops),
                size_bits=max(1, len(matching) + len(tops)) * ctx.config.pointer_bits,
            )
        )
