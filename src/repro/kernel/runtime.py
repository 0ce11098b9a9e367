"""The kernel runtime interface: what a protocol participant runs on.

:class:`NodeRuntime` is a :class:`~repro.kernel.clock.Clock` plus a
message fabric.  The five PeerWindow services (join, level shift,
failure detection, dissemination, maintenance) are written against this
surface only; backends differ in *how* they implement it, never in what
the services see:

* :class:`~repro.core.runtime.SimRuntime` — one sequential
  :class:`~repro.sim.engine.Simulator` + :class:`~repro.net.transport.Transport`;
* :class:`~repro.core.runtime.PartitionedRuntime` — conservative
  parallel DES, one runtime view per logical process;
* :class:`~repro.live.runtime.RealtimeRuntime` — asyncio/UDP with
  wall-clock timers, messages serialized by :mod:`repro.kernel.codec`.

Request/response semantics (shared by all backends, verified by
``tests/live/test_request_semantics.py``):

* exactly one of ``on_reply`` / ``on_timeout`` fires, ``on_reply`` at
  most once even if the responder replies twice;
* a duplicate or late reply (after the timeout fired) is *not* dropped —
  it falls through to the requester's registered endpoint handler, which
  is how the protocol's stale-ack paths observe it;
* ``unregister`` cancels the pending requests the departed endpoint
  originated (their callbacks never fire), and only those.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable, Protocol, runtime_checkable

from repro.kernel.clock import Clock, TimerHandle
from repro.net.message import Message


@runtime_checkable
class EndpointLike(Protocol):
    """What :meth:`NodeRuntime.register` returns: the per-node mailbox
    with the §2 bandwidth meters the level-shift service reads."""

    key: Hashable
    handler: Callable[[Message], None]
    bw_in: Any
    bw_out: Any
    ewma_in: Any


class NodeRuntime(Clock):
    """The execution surface one protocol participant runs on."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time for this node, in seconds (see :class:`Clock`)."""

    @abc.abstractmethod
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds."""

    @abc.abstractmethod
    def send(self, msg: Message) -> None:
        """Fire-and-forget message send."""

    @abc.abstractmethod
    def request(
        self,
        msg: Message,
        timeout: float,
        on_reply: Callable[[Message], None],
        on_timeout: Callable[[], None],
    ) -> None:
        """Correlated request/response with a timeout (semantics above)."""

    @abc.abstractmethod
    def is_alive(self, key: Hashable) -> bool:
        """Whether ``key`` is a currently-registered endpoint.

        Backends without a global membership view (the realtime backend)
        answer for *locally hosted* keys only; the protocol only ever
        asks about a node's own address, so that is sufficient.
        """

    @abc.abstractmethod
    def register(self, key: Hashable, handler: Callable[[Message], None]) -> EndpointLike:
        """Attach a message handler for ``key``; returns its endpoint."""

    @abc.abstractmethod
    def unregister(self, key: Hashable) -> None:
        """Detach ``key`` (a departed node)."""
