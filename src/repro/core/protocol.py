"""The detailed-engine harness: a whole PeerWindow system in one object.

:class:`PeerWindowNetwork` owns the simulator, the topology, the transport
and every :class:`~repro.core.node.PeerWindowNode`; it provides:

* **seeding** — install an initial population with consistent peer lists,
  top-node lists, parts and levels (the paper likewise first *creates* its
  100,000 nodes, then churns them);
* **protocol joins/leaves/crashes** at runtime;
* **ground-truth measurement** — per-level peer-list error rates (stale +
  absent entries vs. the oracle list), level histograms, peer-list sizes
  and bandwidth by level: the quantities of figures 5-8 at detailed-engine
  scale.

The harness is the integration surface the examples and most integration
tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.audience import prefix_range
from repro.core.config import ProtocolConfig
from repro.core.node import PeerWindowNode
from repro.core.nodeid import NodeId
from repro.core.peerlist import AddressTable
from repro.core.runtime import PartitionedRuntime, SimRuntime
from repro.core.seeding import SeedSpec, seed_network
from repro.net.latency import PairwiseLatencyModel, UniformLatencyModel
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs.trace import Observability, Span
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@dataclass
class LevelReport:
    """Per-level aggregate of a network snapshot."""

    level: int
    count: int = 0
    peer_list_sizes: List[int] = field(default_factory=list)
    error_rates: List[float] = field(default_factory=list)
    in_bps: List[float] = field(default_factory=list)
    out_bps: List[float] = field(default_factory=list)

    def mean_error(self) -> float:
        return float(np.mean(self.error_rates)) if self.error_rates else 0.0

    def mean_size(self) -> float:
        return float(np.mean(self.peer_list_sizes)) if self.peer_list_sizes else 0.0


class PeerWindowNetwork:
    """A simulated PeerWindow deployment."""

    def __init__(
        self,
        config: Optional[ProtocolConfig] = None,
        topology: Optional[Topology] = None,
        master_seed: int = 0,
        loss_rate: float = 0.0,
        sim: Optional[Simulator] = None,
        parallel: Optional[int] = None,
        lookahead: Optional[float] = None,
        observability: bool = False,
    ):
        """``sim`` lets a caller embed the network in an externally-owned
        simulator — e.g. one logical process of the ONSP-style
        :class:`~repro.sim.parallel.ParallelSimulator` (split PeerWindow
        parts are mutually independent, so one part per LP is the natural
        partition; see ``examples/onsp_parallel.py``).

        ``parallel=N`` instead partitions the *whole* network across the
        ``N`` logical processes of a
        :class:`~repro.core.runtime.PartitionedRuntime` (nodes are assigned
        by ``node_id % N``).  Requires a topology with a pure
        ``pair_latency`` (default: :class:`~repro.net.latency.PairwiseLatencyModel`);
        a fixed-seed run produces bit-for-bit the same results as the
        sequential engine — including under ``loss_rate > 0``, whose drop
        decisions are hash-derived per message rather than RNG-drawn.  ``lookahead`` defaults to the
        topology's minimum latency."""
        self.config = config if config is not None else ProtocolConfig()
        self.streams = RandomStreams(master_seed)
        self.parallel = parallel
        #: Causal tracing + per-node metric registries (repro.obs).  Off
        #: by default: enabled mode records spans/metrics but never sends
        #: messages, draws randomness, or alters timing, so protocol
        #: behavior is identical either way (and, with it off, sequential
        #: and partitioned runs stay bit-for-bit equivalent).
        self.obs = Observability(enabled=observability)
        if parallel is not None:
            if parallel < 1:
                raise ValueError("parallel must be >= 1")
            if sim is not None:
                raise ValueError("parallel= and sim= are mutually exclusive")
            self.topology = (
                topology if topology is not None else PairwiseLatencyModel()
            )
            self.runtime = PartitionedRuntime(
                parallel,
                self.topology,
                lookahead=lookahead,
                loss_rate=loss_rate,
                loss_seed=master_seed,
            )
            # No single event queue exists in partitioned mode; code that
            # needs the clock uses ``self.now``.
            self.sim = None
            self.transport = None
        else:
            self.sim = sim if sim is not None else Simulator()
            self.topology = (
                topology if topology is not None else UniformLatencyModel(latency=0.05)
            )
            self.transport = Transport(
                self.sim,
                self.topology,
                loss_rate=loss_rate,
                loss_seed=master_seed,
            )
            self.runtime = SimRuntime(self.sim, self.transport)
        self.nodes: Dict[Hashable, PeerWindowNode] = {}
        self._next_key = 0
        self._id_rng = self.streams.get("nodeids")
        # Every id ever allocated (departed nodes included — ids are never
        # reused), so duplicate checks stay O(1) at large populations, and
        # the address it was allocated with: the id -> address table every
        # node's lists read row addresses from (repro.core.peerlist).
        self._addresses: AddressTable = {}

    @property
    def now(self) -> float:
        """Current simulated time (mode-independent)."""
        return self.sim.now if self.sim is not None else self.runtime.now

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------

    def _alloc(self, node_id: Optional[NodeId]) -> Tuple[int, NodeId]:
        key = self._next_key
        self._next_key += 1
        if node_id is None:
            node_id = NodeId.random(self._id_rng, self.config.id_bits)
            while node_id.value in self._addresses:  # pragma: no cover - rare at 128 bits
                node_id = NodeId.random(self._id_rng, self.config.id_bits)
        self._addresses.setdefault(node_id.value, key)
        return key, node_id

    def _make_node(
        self,
        node_id: Optional[NodeId],
        threshold_bps: float,
        attached_info: Any = None,
    ) -> PeerWindowNode:
        key, nid = self._alloc(node_id)
        if self.parallel is not None:
            runtime = self.runtime.runtime_for(nid.value, key)
        else:
            runtime = self.runtime
        node = PeerWindowNode(
            runtime=runtime,
            config=self.config,
            node_id=nid,
            address=key,
            threshold_bps=threshold_bps,
            rng=self.streams.substream("node", key),
            attached_info=attached_info,
            on_left=self._node_left,
            obs=self.obs.view(key),
            addresses=self._addresses,
        )
        self.nodes[key] = node
        return node

    def _node_left(self, node: PeerWindowNode) -> None:
        self.nodes.pop(node.address, None)

    def live_nodes(self) -> List[PeerWindowNode]:
        return [n for n in self.nodes.values() if n.alive]

    def node(self, key: Hashable) -> PeerWindowNode:
        return self.nodes[key]

    # -- seeding -----------------------------------------------------------

    def seed_nodes(
        self,
        specs: Sequence[SeedSpec],
        mean_lifetime_s: float = 3600.0,
        changes_per_lifetime: float = 3.0,
        forced_level: Optional[int] = None,
    ) -> List[Hashable]:
        """Install an initial population in the protocol's converged state
        (see :func:`~repro.core.seeding.seed_network`).  Returns the node
        keys in spec order."""
        return seed_network(
            self,
            specs,
            mean_lifetime_s=mean_lifetime_s,
            changes_per_lifetime=changes_per_lifetime,
            forced_level=forced_level,
        )

    # -- runtime population changes ---------------------------------------------

    def add_first_node(
        self, threshold_bps: float, node_id: Optional[NodeId] = None, level: int = 0
    ) -> Hashable:
        node = self._make_node(node_id, threshold_bps)
        node.bootstrap_first(level)
        return node.address

    def add_node(
        self,
        threshold_bps: float,
        bootstrap: Hashable,
        node_id: Optional[NodeId] = None,
        attached_info: Any = None,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> Hashable:
        """Protocol join through ``bootstrap``; returns the new key
        immediately (the handshake completes asynchronously)."""
        node = self._make_node(node_id, threshold_bps, attached_info)
        node.join_via(bootstrap, on_done=on_done)
        return node.address

    def leave(self, key: Hashable) -> None:
        self.nodes[key].leave()

    def crash(self, key: Hashable) -> PeerWindowNode:
        """Crash ``key``; returns the node object so a chaos harness can
        later hand it to :meth:`recover_node`."""
        node = self.nodes[key]
        node.crash()
        return node

    def recover_node(
        self,
        node: PeerWindowNode,
        bootstrap: Hashable,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> Hashable:
        """Rejoin a previously crashed ``node`` through ``bootstrap``,
        reconciling its stale cached peer list against the downloaded
        snapshot (see :meth:`PeerWindowNode.recover_via`).  Returns the
        node's key immediately; the handshake completes asynchronously."""
        if node.address in self.nodes:
            raise ValueError(f"{node.address!r} is already part of the network")
        self.nodes[node.address] = node
        node.recover_via(bootstrap, on_done=on_done)
        return node.address

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        if self.parallel is not None:
            if until is None:
                raise ValueError("partitioned execution needs an explicit until=")
            if max_events is not None:
                raise ValueError(
                    "max_events is not meaningful across logical processes"
                )
            return self.runtime.run(until=until)
        return self.sim.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # ground-truth measurement
    # ------------------------------------------------------------------

    def live_ids(self) -> List[int]:
        """Id values of the live nodes, ascending — what the oracle
        queries slice; sort once and pass it to a batch of them."""
        return sorted(n.node_id.value for n in self.live_nodes())

    def oracle_peer_ids(
        self, node: PeerWindowNode, live_ids: Optional[List[int]] = None
    ) -> set:
        """The correct peer list of ``node``: ids of all live nodes sharing
        its first ``level`` bits (including itself) — one run of the
        sorted live ids."""
        ids = self.live_ids() if live_ids is None else live_ids
        start, stop = prefix_range(ids, node.node_id.value, node.node_id.bits, node.level)
        return set(ids[start:stop])

    def node_error_rate(
        self, node: PeerWindowNode, live_ids: Optional[List[int]] = None
    ) -> float:
        """(stale + absent) / correct for one node's peer list."""
        correct = self.oracle_peer_ids(node, live_ids)
        actual = set(node.peer_list.ids())
        stale = len(actual - correct)
        absent = len(correct - actual)
        if not correct:
            return 0.0
        return (stale + absent) / len(correct)

    def level_reports(self) -> Dict[int, LevelReport]:
        """Figures 5-8 at detailed-engine scale: per-level population,
        peer-list size, error rate, and in/out bandwidth."""
        now = self.now
        live_ids = self.live_ids()
        reports: Dict[int, LevelReport] = {}
        for node in self.live_nodes():
            rep = reports.setdefault(node.level, LevelReport(node.level))
            rep.count += 1
            rep.peer_list_sizes.append(len(node.peer_list))
            rep.error_rates.append(self.node_error_rate(node, live_ids))
            rep.in_bps.append(node.endpoint.bw_in.lifetime_rate(now))
            rep.out_bps.append(node.endpoint.bw_out.lifetime_rate(now))
        return dict(sorted(reports.items()))

    def level_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for node in self.live_nodes():
            hist[node.level] = hist.get(node.level, 0) + 1
        return dict(sorted(hist.items()))

    def mean_error_rate(self) -> float:
        live = self.live_nodes()
        if not live:
            return 0.0
        live_ids = self.live_ids()
        return float(np.mean([self.node_error_rate(n, live_ids) for n in live]))

    def stats_summary(self) -> Dict[str, float]:
        """Network-wide protocol counters summed over live nodes, plus
        transport totals — the one-call health dump."""
        from dataclasses import asdict

        totals: Dict[str, float] = {}
        for node in self.live_nodes():
            for key, value in asdict(node.stats).items():
                totals[key] = totals.get(key, 0) + value
        totals["live_nodes"] = len(self.live_nodes())
        totals["mean_error_rate"] = self.mean_error_rate()
        for key, value in self.runtime.transport_stats().items():
            if isinstance(value, (int, float)):
                totals[f"transport_{key}"] = value
        return totals

    # -- observability ----------------------------------------------------

    def spans(self) -> List[Span]:
        """All recorded spans network-wide, deterministically ordered (see
        :meth:`repro.obs.trace.Observability.spans`).  Empty when the
        network was built without ``observability=True``."""
        return self.obs.spans()

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id — each value is one causal tree
        (a multicast's hops, a join handshake, a probe chain)."""
        return self.obs.traces()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The network-wide metrics aggregate, with the per-level gauges
        sampled from live state and the transport's counters per message
        kind (:meth:`~repro.obs.trace.Observability.network_snapshot`), so
        the one snapshot carries everything the
        :mod:`repro.core.analytic` cost-model comparison needs.
        """
        stats = self.runtime.transport_stats()
        return self.obs.network_snapshot(
            ((n.ctx.obs.registry, n.level, len(n.peer_list))
             for n in self.live_nodes()),
            stats.get("by_kind", {}),
            stats.get("bytes_by_kind", {}),
        )

    def parts(self) -> Dict[str, int]:
        """Current part structure (prefix -> population), from the oracle
        part rule of DESIGN.md §7."""
        live = self.live_nodes()
        eigen = sorted({n.eigenstring for n in live}, key=len)
        out: Dict[str, int] = {}
        for n in live:
            bitstr = n.node_id.bitstring()
            for e in eigen:
                if bitstr.startswith(e):
                    out[e] = out.get(e, 0) + 1
                    break
        return dict(sorted(out.items()))
