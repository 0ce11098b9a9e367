"""Simulation-backed runtimes for the kernel's :class:`NodeRuntime`.

The PeerWindow services (join, failure detection, dissemination,
maintenance) never touch a simulator or a transport directly; they are
written against :class:`repro.kernel.runtime.NodeRuntime` — a clock,
timers, and a message fabric.  This module provides the two
discrete-event instantiations (the third,
:class:`repro.live.runtime.RealtimeRuntime`, runs over real sockets):

* :class:`SimRuntime` — the classic pairing of one sequential
  :class:`~repro.sim.engine.Simulator` with one
  :class:`~repro.net.transport.Transport`.  This is what every detailed
  single-engine experiment uses.
* :class:`PartitionedRuntime` — maps nodes onto the logical processes of
  the conservative :class:`~repro.sim.parallel.ParallelSimulator` (the
  ONSP execution model).  Each LP owns a private event queue and a
  private :class:`~repro.net.transport.PartitionedTransport`; intra-LP
  messages are plain local events while cross-LP messages go through the
  LP outbox and therefore must respect the lookahead contract (the
  topology's minimum latency serves as the lookahead, exactly like ONSP's
  network-latency lookahead over Myrinet links).

The partitioned runtime is engineered so that a fixed-seed protocol run
produces *bit-for-bit* the same results as sequential execution (the
correctness property conservative parallel DES must preserve, verified by
``tests/integration/test_parallel_equivalence.py``):

* per-LP transports keep private counters, pending-request maps and
  endpoint tables, so no LP reads or writes another LP's state;
* message delays come from the topology's **pure** ``pair_latency``
  function — computing a delay never reads shared liveness state, and the
  destination-dead check happens at delivery time inside the destination
  LP where it is correctly ordered against the departure;
* every per-node random stream is keyed by the node, so draw order within
  a node is the node's own event order, which partitioning preserves;
* no mutable protocol state is ever shared between nodes — a peer list
  stores columns, copying a :class:`~repro.core.pointer.Pointer` in and
  building a fresh one out, and the top-node lists copy at ``merge`` —
  since a shared object would be a covert channel that leaks one LP's
  progress into another outside the message fabric.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.kernel.runtime import NodeRuntime
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transport import Endpoint, PartitionedTransport, Transport
from repro.sim.engine import EventHandle, Simulator
from repro.sim.parallel import ParallelSimulator

__all__ = ["PartitionedRuntime", "SimRuntime"]


class SimRuntime(NodeRuntime):
    """A sequential Simulator + Transport pair seen through the runtime
    interface.  Clock duties go straight to the simulator, whose handles
    already satisfy the kernel's timer protocols — every timer the
    protocol arms passes through here, so a hop saved is saved per
    event.  All nodes of a sequential network share one instance."""

    def __init__(self, sim: Simulator, transport: Transport):
        self.sim = sim
        self.transport = transport

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        return self.sim.schedule(delay, callback, *args)

    def send(self, msg: Message) -> None:
        self.transport.send(msg)

    def request(
        self,
        msg: Message,
        timeout: float,
        on_reply: Callable[[Message], None],
        on_timeout: Callable[[], None],
    ) -> None:
        self.transport.request(msg, timeout, on_reply, on_timeout)

    def is_alive(self, key: Hashable) -> bool:
        return self.transport.is_alive(key)

    def register(self, key: Hashable, handler: Callable[[Message], None]) -> Endpoint:
        return self.transport.register(key, handler)

    def unregister(self, key: Hashable) -> None:
        self.transport.unregister(key)

    def transport_stats(self) -> Dict[str, Any]:
        return self.transport.stats()


class PartitionedRuntime:
    """Nodes partitioned across the logical processes of a
    :class:`~repro.sim.parallel.ParallelSimulator`.

    The runtime is the *coordinator*: it owns the parallel simulator, one
    :class:`~repro.net.transport.PartitionedTransport` per LP, and the
    address -> rank directory; :meth:`runtime_for` hands each node the
    :class:`SimRuntime` view of its LP.  It also implements the
    :class:`~repro.net.transport.PartitionRouter` contract those
    transports route through.

    Parameters
    ----------
    nranks:
        Number of logical processes.
    topology:
        A topology exposing ``pair_latency`` (a pure pairwise function) —
        e.g. :class:`~repro.net.latency.PairwiseLatencyModel` or
        :class:`~repro.net.latency.UniformLatencyModel`.
    lookahead:
        Conservative window width; defaults to ``topology.min_latency()``.
        Must not exceed it — a cross-LP message below the lookahead is a
        contract violation the LP refuses.
    loss_rate:
        Independent message loss.  Drop decisions are hash-derived from
        ``(loss_seed, source, per-source send sequence)`` — not drawn from
        a transport-wide RNG — so they are identical across partitionings
        and the bit-for-bit equivalence guarantee holds with loss enabled
        (see :mod:`repro.net.transport`).
    loss_seed:
        Seed of the hashed loss/duplication decision stream; must match
        the sequential run being compared against.
    """

    def __init__(
        self,
        nranks: int,
        topology: Topology,
        lookahead: Optional[float] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ):
        # Raises NotImplementedError for models without a pure pair
        # function (purity means probing with dummy keys is harmless).
        topology.pair_latency("__partition_probe_a__", "__partition_probe_b__")
        min_lat = topology.min_latency()
        if lookahead is None:
            lookahead = min_lat
        if lookahead > min_lat:
            raise ValueError(
                f"lookahead {lookahead} exceeds the topology's minimum "
                f"latency {min_lat}; cross-LP sends would violate the "
                "conservative contract"
            )
        self.topology = topology
        self.psim = ParallelSimulator(nranks=nranks, lookahead=lookahead)
        self.transports: List[PartitionedTransport] = [
            PartitionedTransport(
                lp.sim,
                rank=lp.rank,
                router=self,
                loss_rate=loss_rate,
                loss_seed=loss_seed,
            )
            for lp in self.psim.lps
        ]
        self._views = [
            SimRuntime(lp.sim, tr) for lp, tr in zip(self.psim.lps, self.transports)
        ]
        #: address -> owning rank; written only between epochs (node
        #: creation happens outside ``run``), read from any LP.
        self._directory: Dict[Hashable, int] = {}

    # -- partitioning ------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self.psim.nranks

    @property
    def lookahead(self) -> float:
        return self.psim.lookahead

    def rank_for_node(self, node_id_value: int) -> int:
        """Deterministic nodeId -> LP assignment (modulo partitioning)."""
        return node_id_value % self.psim.nranks

    def runtime_for(self, node_id_value: int, address: Hashable) -> SimRuntime:
        """The runtime view a node at ``address`` should be wired to.

        Also records the address -> rank mapping so the transports can
        route to it.  Call before the node registers its endpoint.
        """
        rank = self.rank_for_node(node_id_value)
        self._directory[address] = rank
        return self._views[rank]

    def view(self, rank: int) -> SimRuntime:
        return self._views[rank]

    # -- PartitionRouter contract -----------------------------------------

    def rank_of(self, key: Hashable) -> Optional[int]:
        return self._directory.get(key)

    def pair_latency(self, a: Hashable, b: Hashable) -> float:
        return self.topology.pair_latency(a, b)

    def cross_send(self, src_rank: int, dest_rank: int, delay: float, msg: Message) -> None:
        self.psim.lps[src_rank].send(
            dest_rank, delay, self.transports[dest_rank]._deliver, msg
        )

    # -- execution and introspection --------------------------------------

    @property
    def now(self) -> float:
        return self.psim.now

    def run(self, until: float) -> float:
        return self.psim.run(until=until)

    def transport_stats(self) -> Dict[str, Any]:
        """Per-LP transport counters summed — comparable field-for-field
        with a sequential :meth:`~repro.net.transport.Transport.stats`."""
        totals: Dict[str, Any] = {}
        for tr in self.transports:
            for key, value in tr.stats().items():
                if isinstance(value, dict):
                    merged = totals.setdefault(key, {})
                    for kind, count in value.items():
                        merged[kind] = merged.get(kind, 0) + count
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals
