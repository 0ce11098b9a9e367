"""Network substrate: topology, latency, and simulated transport.

The paper evaluates PeerWindow over a GT-ITM Transit-Stub topology [20]
with fixed per-tier latencies; messages additionally pay a 1-second
processing delay at each multicast relay.  This package provides:

* :class:`~repro.net.topology.Topology` — the latency-oracle interface.
* :class:`~repro.net.transit_stub.TransitStubTopology` — the GT-ITM model
  with the paper's exact parameters (120 transit domains x 4 transit
  nodes, 5 stub domains per transit node x 2 stub nodes).
* :class:`~repro.net.transport.Transport` — message delivery over a
  :class:`~repro.sim.engine.Simulator` with latency, optional loss, and
  per-endpoint bandwidth metering.
* :class:`~repro.net.bandwidth.BandwidthMeter` — cumulative per-node bit
  accounting (figure 8); the autonomic level controller reads the
  :class:`~repro.net.bandwidth.EwmaRateMeter` next to it.
"""

from repro.net.bandwidth import BandwidthMeter
from repro.net.latency import PairwiseLatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transit_stub import TransitStubParams, TransitStubTopology
from repro.net.transport import (
    Endpoint,
    PartitionedTransport,
    PartitionRouter,
    Transport,
)

__all__ = [
    "BandwidthMeter",
    "Endpoint",
    "Message",
    "PairwiseLatencyModel",
    "PartitionRouter",
    "PartitionedTransport",
    "Topology",
    "TransitStubParams",
    "TransitStubTopology",
    "Transport",
    "UniformLatencyModel",
]
