"""Backend-neutral execution kernel.

The PeerWindow services are written against three small surfaces, all of
which live here and none of which mention a simulator or a socket:

* :class:`~repro.kernel.clock.Clock` — time and one-shot timers;
* :class:`~repro.kernel.runtime.NodeRuntime` — the clock plus a message
  fabric (send / correlated request / endpoint registry);
* :mod:`~repro.kernel.codec` — a versioned, schema-checked JSON wire
  format for :class:`~repro.net.message.Message` and every payload the
  protocol puts on the wire.

Three runtimes instantiate the kernel: :class:`~repro.core.runtime.SimRuntime`
(sequential DES), :class:`~repro.core.runtime.PartitionedRuntime`
(conservative parallel DES), and :class:`~repro.live.runtime.RealtimeRuntime`
(asyncio/UDP on a real host).  The services run unchanged on all three;
the two simulator runtimes call their ``Simulator`` directly.
"""

from repro.kernel.clock import Clock, TimerHandle
from repro.kernel.codec import (
    MESSAGE_KINDS,
    WIRE_SCHEMA_VERSION,
    CodecError,
    decode_message,
    encode_message,
)
from repro.kernel.runtime import EndpointLike, NodeRuntime
from repro.kernel.schema import BODY_SCHEMAS, BodySchema, payload_schema

__all__ = [
    "BODY_SCHEMAS",
    "BodySchema",
    "Clock",
    "CodecError",
    "EndpointLike",
    "MESSAGE_KINDS",
    "NodeRuntime",
    "TimerHandle",
    "WIRE_SCHEMA_VERSION",
    "decode_message",
    "encode_message",
    "payload_schema",
]
