"""`RealtimeRuntime`: the kernel runtime over asyncio/UDP.

One instance owns one UDP socket and hosts one (or, in tests, several)
endpoint(s).  Addresses are ``"host:port"`` strings; messages are
serialized with :mod:`repro.kernel.codec` and sent as single datagrams
(every protocol message fits well under a localhost MTU).

The delivery path reproduces :class:`repro.net.transport.Transport`'s
request/response semantics exactly — same pending-map correlation, same
late/duplicate-reply fall-through to the endpoint handler, same
``unregister`` cancellation scope — so the services observe identical
behavior on both backends (verified by
``tests/live/test_request_semantics.py``).  On top of that, ``request``
can retransmit the datagram within the timeout window
(``request_retries``): UDP loss is real here, unlike the simulator's
modeled loss.  Retransmits carry the same ``msg_id``, so a duplicate
arrival at the responder is absorbed by the protocol's own dedup
machinery, exactly like transport-level duplication in the simulator.

Malformed datagrams (schema violations, junk bytes) are counted and
dropped — a wire-format error must never crash a node.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.kernel.codec import CodecError, decode_message, encode_message
from repro.kernel.runtime import NodeRuntime
from repro.live.clock import RealtimeClock, RealtimeTimer
from repro.net.message import Message
from repro.net.transport import Endpoint

Handler = Callable[[Message], None]

#: Upper bound on per-request datagram retransmits.  Each retransmit is
#: a full extra copy of the request on the wire, so an unbounded setting
#: turns one lossy peer into a self-inflicted traffic amplifier; the
#: protocol's own §4.2/§4.3 retries already recover from whole-request
#: timeouts a layer above.
MAX_REQUEST_RETRIES = 8


def parse_address(key: Hashable) -> Tuple[str, int]:
    """Split a live ``"host:port"`` address key."""
    if not isinstance(key, str) or ":" not in key:
        raise ValueError(f"live addresses are 'host:port' strings, got {key!r}")
    host, _, port = key.rpartition(":")
    return host, int(port)


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"


class _LivePending:
    __slots__ = ("src", "on_reply", "timeout_handle", "retry_handles")

    def __init__(
        self,
        src: Hashable,
        on_reply: Callable[[Message], None],
        timeout_handle: RealtimeTimer,
        retry_handles: List[RealtimeTimer],
    ):
        self.src = src
        self.on_reply = on_reply
        self.timeout_handle = timeout_handle
        self.retry_handles = retry_handles

    def cancel_timers(self) -> None:
        self.timeout_handle.cancel()
        for handle in self.retry_handles:
            handle.cancel()


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, runtime: "RealtimeRuntime"):
        self.runtime = runtime

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.runtime._datagram_received(data)

    def error_received(self, exc: Exception) -> None:
        self.runtime.socket_errors += 1


class RealtimeRuntime(NodeRuntime):
    """A :class:`~repro.kernel.runtime.NodeRuntime` over one UDP socket.

    Build with :meth:`create` inside a running event loop::

        runtime = await RealtimeRuntime.create(port=0, epoch=epoch)
        ... PeerWindowNode(runtime=runtime, address=runtime.address, ...)
        await runtime.close()

    Parameters
    ----------
    request_retries:
        Datagram retransmits per :meth:`request` within its timeout
        window (0 disables; the protocol's own §4.2/§4.3 retries sit a
        layer above and are always active).
    """

    def __init__(self, clock: RealtimeClock, host: str, request_retries: int = 0):
        if request_retries < 0:
            raise ValueError("request_retries must be >= 0")
        if request_retries > MAX_REQUEST_RETRIES:
            raise ValueError(
                f"request_retries must be <= {MAX_REQUEST_RETRIES} "
                f"(got {request_retries}); higher values amplify loss "
                f"into traffic storms"
            )
        self.clock = clock
        self.host = host
        self.port: Optional[int] = None
        self.request_retries = request_retries
        self._sock: Optional[asyncio.DatagramTransport] = None
        self._endpoints: Dict[Hashable, Endpoint] = {}
        self._pending: Dict[int, _LivePending] = {}
        # Statistics; same shape as Transport.stats() so the metrics
        # injection path is backend-agnostic.
        self.sent = 0
        self.delivered = 0
        self.dropped_dead = 0
        self.malformed = 0
        self.retransmits = 0
        self.retransmit_giveups = 0
        self.socket_errors = 0
        self.by_kind: Dict[str, int] = {}
        self.bytes_by_kind: Dict[str, int] = {}

    @classmethod
    async def create(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        epoch: Optional[float] = None,
        request_retries: int = 0,
    ) -> "RealtimeRuntime":
        """Bind the socket and return a ready runtime.  ``port=0`` binds
        an ephemeral port (read it back from :attr:`address`)."""
        self = cls(RealtimeClock(epoch=epoch), host, request_retries=request_retries)
        sock, _ = await asyncio.get_running_loop().create_datagram_endpoint(
            lambda: _UdpProtocol(self), local_addr=(host, port)
        )
        self._sock = sock
        self.port = sock.get_extra_info("sockname")[1]
        return self

    @property
    def address(self) -> str:
        """This socket's ``"host:port"`` key."""
        return format_address(self.host, self.port)

    async def close(self) -> None:
        """Cancel outstanding request timers and close the socket."""
        for pending in list(self._pending.values()):
            pending.cancel_timers()
        self._pending.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        # Let the transport's connection_lost callback run.
        await asyncio.sleep(0)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> RealtimeTimer:
        return self.clock.schedule(delay, callback, *args)

    # -- registration ------------------------------------------------------

    def register(self, key: Hashable, handler: Handler) -> Endpoint:
        if key in self._endpoints:
            raise ValueError(f"endpoint {key!r} already registered")
        parse_address(key)  # live keys must be routable host:port strings
        ep = Endpoint(key, handler, self.clock.now)
        self._endpoints[key] = ep
        return ep

    def unregister(self, key: Hashable) -> None:
        """Detach ``key``; cancels the pending requests it originated
        (and only those), mirroring the simulated transport."""
        self._endpoints.pop(key, None)
        stale = [
            msg_id for msg_id, pending in self._pending.items() if pending.src == key
        ]
        for msg_id in stale:
            self._pending.pop(msg_id).cancel_timers()

    def is_alive(self, key: Hashable) -> bool:
        """Liveness of a *locally hosted* endpoint.  A live process has
        no global membership view, and the protocol only asks about the
        node's own address (remote liveness is what §4.1 probes are for)."""
        return key in self._endpoints

    def endpoint(self, key: Hashable) -> Endpoint:
        return self._endpoints[key]

    def __len__(self) -> int:
        return len(self._endpoints)

    # -- sends -------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Encode and transmit one datagram.  Bills the local sender's
        bandwidth meters with the paper's modeled ``size_bits`` (the
        quantity the §2 cost model integrates), not the JSON byte count."""
        data = encode_message(msg)
        self._transmit(msg, data)

    def _transmit(self, msg: Message, data: bytes) -> None:
        self.sent += 1
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1
        self.bytes_by_kind[msg.kind] = (
            self.bytes_by_kind.get(msg.kind, 0) + msg.size_bits
        )
        sender = self._endpoints.get(msg.src)
        if sender is not None:
            sender.bw_out.record(self.clock.now, msg.size_bits)
        host, port = parse_address(msg.dst)
        if self._sock is None or self._sock.is_closing():
            self.socket_errors += 1
            return
        self._sock.sendto(data, (host, port))

    # -- request/response --------------------------------------------------

    def request(
        self,
        msg: Message,
        timeout: float,
        on_reply: Callable[[Message], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """Send ``msg`` expecting a reply correlated by ``msg.msg_id``.

        Exactly one of ``on_reply(reply)`` / ``on_timeout()`` fires.
        With ``request_retries > 0`` the datagram is retransmitted at
        even fractions of the timeout window while no reply has arrived.
        """
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        data = encode_message(msg)
        timeout_handle = self.clock.schedule(
            timeout, self._on_timeout, msg.msg_id, on_timeout
        )
        retry_handles = [
            self.clock.schedule(
                timeout * attempt / (self.request_retries + 1),
                self._retransmit,
                msg,
                data,
            )
            for attempt in range(1, self.request_retries + 1)
        ]
        self._pending[msg.msg_id] = _LivePending(
            msg.src, on_reply, timeout_handle, retry_handles
        )
        self._transmit(msg, data)

    def _retransmit(self, msg: Message, data: bytes) -> None:
        if msg.msg_id in self._pending:
            self.retransmits += 1
            self._transmit(msg, data)

    def _on_timeout(self, msg_id: int, on_timeout: Callable[[], None]) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is not None:
            for handle in pending.retry_handles:
                handle.cancel()
            if pending.retry_handles:
                # Every scheduled retransmit fired (or was just cancelled
                # above, which only happens at the window's end) and the
                # reply still never came: the request gave up.
                self.retransmit_giveups += 1
            on_timeout()

    # -- delivery ----------------------------------------------------------

    def _datagram_received(self, data: bytes) -> None:
        try:
            msg = decode_message(data)
        except CodecError:
            self.malformed += 1
            return
        self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        ep = self._endpoints.get(msg.dst)
        if ep is None:
            self.dropped_dead += 1
            return
        now = self.clock.now
        ep.bw_in.record(now, msg.size_bits)
        ep.ewma_in.record(now, msg.size_bits)
        self.delivered += 1
        if msg.reply_to is not None:
            pending = self._pending.pop(msg.reply_to, None)
            if pending is not None:
                pending.cancel_timers()
                pending.on_reply(msg)
                return
            # Late reply after timeout (or a duplicate): fall through to
            # the endpoint handler — the protocol's stale-ack path.
        ep.handler(msg)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot, field-compatible with
        :meth:`repro.net.transport.Transport.stats` (loss/duplication are
        physical here, so the modeled-fault counters read zero)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": 0,
            "duplicated": 0,
            "dropped_dead": self.dropped_dead,
            "dropped_zombie": 0,
            "malformed": self.malformed,
            "retransmits": self.retransmits,
            "retransmit_giveups": self.retransmit_giveups,
            "socket_errors": self.socket_errors,
            "pending_requests": len(self._pending),
            "by_kind": dict(self.by_kind),
            "bytes_by_kind": dict(self.bytes_by_kind),
        }
