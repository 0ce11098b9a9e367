"""Simulated message transport.

Delivers :class:`~repro.net.message.Message` objects between registered
endpoints over a :class:`~repro.sim.engine.Simulator`, with:

* per-pair latency from a :class:`~repro.net.topology.Topology`;
* optional independent message loss (for failure-injection tests —
  PeerWindow's ack/redirect machinery must survive it);
* chaos-injection knobs: network partitions, asymmetric per-pair loss,
  message duplication, latency inflation, and "zombie" endpoints that
  receive but never react (see the ``repro.chaos`` harness);
* per-endpoint in/out :class:`~repro.net.bandwidth.BandwidthMeter` and an
  incoming EWMA meter (the autonomic controller's sensor);
* request/response correlation with timeout callbacks (used by the
  multicast acks, the report path, and the join downloads).

Messages to endpoints that are unregistered *at delivery time* vanish
silently — exactly how a crashed peer looks from the outside.

Loss/duplication decisions are **hash-derived, not RNG-drawn**: each send
gets a per-source sequence number, and the drop decision is a pure
function of ``(loss_seed, source, sequence)``.  A transport-wide RNG
would consume draws in event-execution order, which differs between the
sequential engine and the partitioned engine (and between partitionings),
silently breaking the bit-for-bit equivalence guarantee whenever
``loss_rate > 0``.  Per-source send order *is* preserved by partitioning
(each node's sends happen in its own event order), so the hashed decision
sequence is identical in every execution mode.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.net.bandwidth import BandwidthMeter, EwmaRateMeter
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.engine import EventHandle, Simulator

Handler = Callable[[Message], None]

_U64 = (1 << 64) - 1
#: Salts separating the independent per-message decision streams.
_SALT_LOSS = 0x1
_SALT_PAIR = 0x2
_SALT_DUP = 0x3


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a fast, well-mixed 64-bit permutation."""
    x &= _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _key_bits(key: Hashable) -> int:
    """A platform-stable integer for an endpoint key (``hash()`` is salted
    per-process, so it cannot feed a reproducible decision)."""
    if isinstance(key, int):
        return key & _U64
    return zlib.crc32(repr(key).encode("utf-8"))


class Endpoint:
    """A registered transport endpoint with its bandwidth meters."""

    __slots__ = ("key", "handler", "bw_in", "bw_out", "ewma_in")

    def __init__(self, key: Hashable, handler: Handler, now: float):
        self.key = key
        self.handler = handler
        self.bw_in = BandwidthMeter(t0=now)
        self.bw_out = BandwidthMeter(t0=now)
        self.ewma_in = EwmaRateMeter(t0=now)


class _PendingRequest:
    __slots__ = ("src", "on_reply", "timeout_handle")

    def __init__(
        self,
        src: Hashable,
        on_reply: Callable[[Message], None],
        timeout_handle: EventHandle,
    ):
        self.src = src
        self.on_reply = on_reply
        self.timeout_handle = timeout_handle


class Transport:
    """Latency/loss message fabric over a simulator."""

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[Topology],
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.topology = topology
        self.loss_rate = float(loss_rate)
        self.loss_seed = int(loss_seed)
        self._endpoints: Dict[Hashable, Endpoint] = {}
        self._pending: Dict[int, _PendingRequest] = {}
        # Partition injection: endpoint key -> partition group id.  Keys
        # not in the map are in the implicit group None; messages between
        # different groups are dropped while a partition is active.
        self._partition: Dict[Hashable, int] = {}
        # Chaos knobs (all off by default; see `repro.chaos`).
        self._pair_loss: Dict[Tuple[Hashable, Hashable], float] = {}
        self.duplication_rate = 0.0
        self.latency_scale = 1.0
        self._latency_extra: Dict[Hashable, float] = {}
        self._zombies: set = set()
        # Per-source send sequence (feeds the hashed loss decision).
        self._send_seq: Dict[Hashable, int] = {}
        self._src_bits: Dict[Hashable, int] = {}
        # Statistics
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.duplicated = 0
        self.dropped_dead = 0
        self.dropped_partition = 0
        self.dropped_zombie = 0
        self.by_kind: Dict[str, int] = {}
        self.bytes_by_kind: Dict[str, int] = {}

    # -- registration -------------------------------------------------------

    def register(self, key: Hashable, handler: Handler) -> Endpoint:
        if key in self._endpoints:
            raise ValueError(f"endpoint {key!r} already registered")
        self.topology.attach(key)
        ep = Endpoint(key, handler, self.sim.now)
        self._endpoints[key] = ep
        return ep

    def unregister(self, key: Hashable) -> None:
        """Remove an endpoint.

        Outstanding request timeouts *originated by* the removed endpoint
        are cancelled: the departed node's callbacks are dead weight, and
        leaving their timers in the queue makes long churny runs accumulate
        garbage events.  Timeouts of requests *sent to* the removed key are
        untouched — they are exactly how live peers detect the departure.
        """
        self._endpoints.pop(key, None)
        self.topology.detach(key)
        stale = [
            msg_id for msg_id, pending in self._pending.items() if pending.src == key
        ]
        for msg_id in stale:
            self._pending.pop(msg_id).timeout_handle.cancel()

    def endpoint(self, key: Hashable) -> Endpoint:
        return self._endpoints[key]

    def is_alive(self, key: Hashable) -> bool:
        return key in self._endpoints

    def __len__(self) -> int:
        return len(self._endpoints)

    # -- failure injection -----------------------------------------------------

    def partition(self, *groups: "list") -> None:
        """Install a network partition: messages between different groups
        are silently dropped (both directions) until :meth:`heal`.

        Endpoints not named in any group form one extra implicit side.
        Message loss is applied at delivery time, so packets already in
        flight when the partition starts are also cut.

        Groups are validated: a key named in more than one group, or a key
        that is not a registered endpoint, raises :class:`ValueError`
        naming the offending keys (a silently-accepted typo would make the
        "partition" a no-op for that node and the test a lie).
        """
        mapping: Dict[Hashable, int] = {}
        overlapping: List[Hashable] = []
        unregistered: List[Hashable] = []
        for gid, members in enumerate(groups):
            for key in members:
                if key in mapping and mapping[key] != gid:
                    overlapping.append(key)
                if key not in self._endpoints:
                    unregistered.append(key)
                mapping[key] = gid
        problems = []
        if overlapping:
            problems.append(f"keys in more than one group: {sorted(set(overlapping), key=repr)}")
        if unregistered:
            problems.append(f"keys not registered: {sorted(set(unregistered), key=repr)}")
        if problems:
            raise ValueError("invalid partition groups: " + "; ".join(problems))
        self._partition = mapping

    def heal(self) -> None:
        """Remove the partition; traffic flows normally again."""
        self._partition.clear()

    @property
    def partitioned(self) -> bool:
        return bool(self._partition)

    def _same_side(self, a: Hashable, b: Hashable) -> bool:
        if not self._partition:
            return True
        return self._partition.get(a) == self._partition.get(b)

    def set_pair_loss(self, src: Hashable, dst: Hashable, rate: float) -> None:
        """Directed (asymmetric) loss on the ``src -> dst`` link; the
        reverse direction is unaffected.  ``rate=0`` removes the entry."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("pair loss rate must be in [0, 1]")
        if rate == 0.0:
            self._pair_loss.pop((src, dst), None)
        else:
            self._pair_loss[(src, dst)] = float(rate)

    def clear_pair_loss(self) -> None:
        self._pair_loss.clear()

    def set_duplication(self, rate: float) -> None:
        """Deliver a fraction of sends twice (same latency; the protocol's
        sequence/dedup machinery must absorb the copy)."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("duplication rate must be in [0, 1)")
        self.duplication_rate = float(rate)

    def set_latency_scale(self, scale: float) -> None:
        """Multiply every one-way delay (a network-wide latency spike)."""
        if scale < 1.0:
            raise ValueError("latency scale must be >= 1 (lookahead contract)")
        self.latency_scale = float(scale)

    def set_endpoint_delay(self, key: Hashable, extra: float) -> None:
        """Extra one-way delay on every message to or from ``key`` (a slow
        node).  ``extra=0`` removes the entry."""
        if extra < 0.0:
            raise ValueError("endpoint delay must be >= 0")
        if extra == 0.0:
            self._latency_extra.pop(key, None)
        else:
            self._latency_extra[key] = float(extra)

    def set_zombie(self, key: Hashable, zombie: bool = True) -> None:
        """Mark ``key`` as a zombie: it stays registered (so it does not
        look departed) and still *receives* traffic, but its handler never
        runs and nothing it sends leaves the host — a hung process, not a
        crashed one."""
        if zombie:
            self._zombies.add(key)
        else:
            self._zombies.discard(key)

    def is_zombie(self, key: Hashable) -> bool:
        return key in self._zombies

    # -- hashed per-message decisions -----------------------------------------

    def _decision(self, src_bits: int, seq: int, salt: int) -> float:
        """Uniform [0, 1) value, a pure function of (seed, source, per-
        source sequence, salt) — identical in every execution mode."""
        h = _mix64(self.loss_seed * 0x9E3779B97F4A7C15 + salt)
        h = _mix64(h ^ _mix64(src_bits))
        h = _mix64(h ^ seq)
        return h / 2.0**64

    def _src_key_bits(self, src: Hashable) -> int:
        bits = self._src_bits.get(src)
        if bits is None:
            bits = self._src_bits[src] = _key_bits(src)
        return bits

    # -- plain sends ----------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Fire-and-forget send.  Bills the sender now; delivery (and the
        receiver's bill) happens after the topology latency, unless the
        message is lost or the destination has died."""
        seq = self._send_seq.get(msg.src, 0)
        self._send_seq[msg.src] = seq + 1
        self.sent += 1
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1
        self.bytes_by_kind[msg.kind] = (
            self.bytes_by_kind.get(msg.kind, 0) + msg.size_bits
        )
        if self._zombies and msg.src in self._zombies:
            # A hung process emits nothing (its timers still fire, but the
            # traffic never leaves the host).
            self.dropped_zombie += 1
            return
        sender = self._endpoints.get(msg.src)
        if sender is not None:
            sender.bw_out.record(self.sim.now, msg.size_bits)
        src_bits = None
        if self.loss_rate > 0.0:
            src_bits = self._src_key_bits(msg.src)
            if self._decision(src_bits, seq, _SALT_LOSS) < self.loss_rate:
                self.lost += 1
                return
        if self._pair_loss:
            pair_rate = self._pair_loss.get((msg.src, msg.dst))
            if pair_rate is not None:
                if src_bits is None:
                    src_bits = self._src_key_bits(msg.src)
                if self._decision(src_bits, seq, _SALT_PAIR) < pair_rate:
                    self.lost += 1
                    return
        delay = self._route(msg)
        if delay is None:
            self.dropped_dead += 1
            return
        if self.latency_scale != 1.0:
            delay *= self.latency_scale
        if self._latency_extra:
            delay += self._latency_extra.get(msg.src, 0.0)
            delay += self._latency_extra.get(msg.dst, 0.0)
        self._dispatch(msg, delay)
        if self.duplication_rate > 0.0:
            if src_bits is None:
                src_bits = self._src_key_bits(msg.src)
            if self._decision(src_bits, seq, _SALT_DUP) < self.duplication_rate:
                self.duplicated += 1
                self._dispatch(msg, delay)

    def _route(self, msg: Message) -> Optional[float]:
        """One-way delay for ``msg``, or None when it must be dropped
        (sender or destination already gone).  Subclasses override this to
        change routing semantics."""
        try:
            return self.topology.latency(msg.src, msg.dst)
        except KeyError:
            # Destination (or source) not attached: already gone.
            return None

    def _dispatch(self, msg: Message, delay: float) -> None:
        """Schedule the delivery ``delay`` seconds from now.  Subclasses
        override this to route deliveries to other event queues."""
        self.sim.schedule(delay, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        ep = self._endpoints.get(msg.dst)
        if ep is None:
            self.dropped_dead += 1
            return
        if not self._same_side(msg.src, msg.dst):
            self.dropped_partition += 1
            return
        now = self.sim.now
        if self._zombies and msg.dst in self._zombies:
            # The bits arrive (and are billed), but the hung process never
            # reads them: no handler, no reply correlation.
            ep.bw_in.record(now, msg.size_bits)
            ep.ewma_in.record(now, msg.size_bits)
            self.dropped_zombie += 1
            return
        ep.bw_in.record(now, msg.size_bits)
        ep.ewma_in.record(now, msg.size_bits)
        self.delivered += 1
        if msg.reply_to is not None:
            pending = self._pending.pop(msg.reply_to, None)
            if pending is not None:
                pending.timeout_handle.cancel()
                pending.on_reply(msg)
                return
            # Late reply after timeout: fall through to the endpoint handler
            # so protocols can still use the information (stale-ack path).
        ep.handler(msg)

    # -- request/response -------------------------------------------------------

    def request(
        self,
        msg: Message,
        timeout: float,
        on_reply: Callable[[Message], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """Send ``msg`` expecting a reply correlated by ``msg.msg_id``.

        Exactly one of ``on_reply(reply)`` / ``on_timeout()`` fires.
        """
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        handle = self.sim.schedule(timeout, self._on_timeout, msg.msg_id, on_timeout)
        self._pending[msg.msg_id] = _PendingRequest(msg.src, on_reply, handle)
        self.send(msg)

    def _on_timeout(self, msg_id: int, on_timeout: Callable[[], None]) -> None:
        if self._pending.pop(msg_id, None) is not None:
            on_timeout()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "duplicated": self.duplicated,
            "dropped_dead": self.dropped_dead,
            "dropped_zombie": self.dropped_zombie,
            "pending_requests": len(self._pending),
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
        }


class PartitionRouter:
    """What :class:`PartitionedTransport` needs from its coordinator.

    Implemented by :class:`repro.core.runtime.PartitionedRuntime`; kept as
    a three-method contract here so ``net`` stays independent of the
    parallel engine.
    """

    def rank_of(self, key: Hashable) -> Optional[int]:  # pragma: no cover - contract
        """Logical-process rank owning ``key`` (None if never registered)."""
        raise NotImplementedError

    def pair_latency(self, a: Hashable, b: Hashable) -> float:  # pragma: no cover
        """Pure pairwise one-way latency (no liveness precondition)."""
        raise NotImplementedError

    def cross_send(
        self, src_rank: int, dest_rank: int, delay: float, msg: Message
    ) -> None:  # pragma: no cover - contract
        """Ship ``msg`` to ``dest_rank``'s transport, honouring lookahead."""
        raise NotImplementedError


class PartitionedTransport(Transport):
    """One logical process's share of a partitioned transport fabric.

    Each LP owns one instance: a private endpoint map, pending-request map,
    and counter set, all mutated only from its own event queue, so no LP
    can observe another's progress outside the message fabric.
    Differences from the
    sequential :class:`Transport`:

    * routing uses the router's *pure* pairwise latency, so computing a
      delay never touches shared liveness state; the is-the-destination-dead
      check moves to delivery time inside the destination LP, where it is
      correctly ordered against the destination's own departure.  Totals
      (``delivered``/``dropped_dead``) match sequential execution exactly —
      only the *instant* the drop is counted moves;
    * the (LP-local) sender-liveness check replaces the topology KeyError
      probe, so a departed node's straggler callbacks still cannot emit
      traffic;
    * endpoints do not attach/detach the shared topology object — that
      would be a cross-thread mutation.
    """

    def __init__(
        self,
        sim: Simulator,
        rank: int,
        router: PartitionRouter,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ):
        super().__init__(sim, topology=None, loss_rate=loss_rate, loss_seed=loss_seed)
        self.rank = rank
        self.router = router

    # -- registration: no shared-topology mutation ------------------------

    def register(self, key: Hashable, handler: Handler) -> Endpoint:
        if key in self._endpoints:
            raise ValueError(f"endpoint {key!r} already registered")
        ep = Endpoint(key, handler, self.sim.now)
        self._endpoints[key] = ep
        return ep

    def unregister(self, key: Hashable) -> None:
        self._endpoints.pop(key, None)
        stale = [
            msg_id for msg_id, pending in self._pending.items() if pending.src == key
        ]
        for msg_id in stale:
            self._pending.pop(msg_id).timeout_handle.cancel()

    # -- routing ----------------------------------------------------------

    def _route(self, msg: Message) -> Optional[float]:
        if msg.src not in self._endpoints:
            return None  # departed sender (LP-local check)
        if self.router.rank_of(msg.dst) is None:
            return None  # address never existed
        return self.router.pair_latency(msg.src, msg.dst)

    def _dispatch(self, msg: Message, delay: float) -> None:
        dest_rank = self.router.rank_of(msg.dst)
        if dest_rank == self.rank:
            self.sim.schedule(delay, self._deliver, msg)
        else:
            self.router.cross_send(self.rank, dest_rank, delay, msg)
