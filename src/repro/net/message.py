"""Wire message representation and size accounting.

The paper accounts bandwidth in *bits*: event messages are 1,000 bits,
heartbeats ~500 bits.  ``Message`` carries an explicit ``size_bits`` so the
bandwidth meters can integrate exactly what the paper integrates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Optional, Tuple

_msg_ids: Iterator[int] = itertools.count()

#: Default sizes (bits) from the paper's experiment setup (§5.1) and the
#: introduction's probing example.
EVENT_MESSAGE_BITS: int = 1000
HEARTBEAT_BITS: int = 500
ACK_BITS: int = 100
POINTER_BITS: int = 500  # one pointer entry during peer-list download


@dataclass(slots=True)
class Message:
    """A simulated datagram.

    Attributes
    ----------
    src, dst:
        Endpoint keys (overlay node identifiers).
    kind:
        Message type tag, e.g. ``"event"``, ``"heartbeat"``, ``"ack"``,
        ``"report"``, ``"join"``, ``"download"``.
    payload:
        Model-level payload.  The DES backends pass it by reference
        (sizes are explicit); the realtime backend serializes it via
        :mod:`repro.kernel.codec`, whose per-kind schemas define what may
        legally appear here.
    size_bits:
        Wire size used for bandwidth accounting.
    trace:
        Optional causal-trace context (a ``repro.obs.trace.SpanRef``,
        i.e. a ``(trace_id, span_id, depth)`` tuple).  Metadata only: it
        never affects routing, sizing, or protocol decisions, and is
        ``None`` whenever observability is off — a real implementation
        would carry it as an optional header, so the wire format stays
        compatible (see PROTOCOL.md).
    """

    src: Hashable
    dst: Hashable
    kind: str
    payload: Any = None
    size_bits: int = EVENT_MESSAGE_BITS
    # Sanctioned shared counter: msg_id is reply-correlation metadata
    # only, never a protocol decision, and allocation order is identical
    # in every execution mode.  # detlint: ignore[ISO003]
    msg_id: int = field(default_factory=_msg_ids.__next__)  # detlint: ignore[ISO003]
    reply_to: Optional[int] = None
    #: Structurally a ``repro.obs.trace.SpanRef``; typed as a plain tuple
    #: so the wire layer stays import-independent of the obs layer.
    trace: Optional[Tuple[str, str, int]] = None

    def __post_init__(self) -> None:
        if self.size_bits < 0:
            raise ValueError("size_bits must be non-negative")

    def make_reply(self, kind: str, payload: Any = None, size_bits: int = ACK_BITS) -> "Message":
        """Construct the reply message (dst/src swapped, linked by id).

        The request's trace context is carried back on the reply, so the
        requester can parent follow-up spans without a correlation table.
        """
        return Message(
            src=self.dst,
            dst=self.src,
            kind=kind,
            payload=payload,
            size_bits=size_bits,
            reply_to=self.msg_id,
            trace=self.trace,
        )
