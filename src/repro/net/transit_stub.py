"""GT-ITM Transit-Stub topology model [20].

The paper's underlay: *"there are 120 transit domains, each containing 4
transit nodes.  Every transit node has 5 stub domains, each containing 2
stub nodes.  Thus, there are totally 4800 stub nodes.  ...  transit-to-
transit latency is 100ms; transit-to-stub is 20ms; stub-to-stub is 5ms;
and node-to-node is 1ms."*

Structure generated here (matching GT-ITM's hierarchy):

* a top-level random connected graph over transit **domains** (a ring plus
  random chords, guaranteeing connectivity with GT-ITM-like mean degree);
* a small connected random graph over the transit **nodes** inside each
  domain (ring of 4 by default);
* each inter-domain edge lands on a uniformly random transit node at each
  end;
* stub domains hang off their parent transit node; stub nodes within a
  stub domain are one intra-stub hop apart.

Latency between two attached overlay nodes is computed hierarchically:

``lat(a, b) = node_to_node                      (same stub node)``
``lat(a, b) = stub_to_stub + node_to_node       (same stub domain)``
``lat(a, b) = 2*transit_to_stub + hops(t_a, t_b)*transit_to_transit
              + node_to_node                    (otherwise)``

where ``hops`` is the shortest-path hop count over the transit-node graph
(precomputed once with ``scipy.sparse.csgraph``).  This is exactly the
routing cost over the generated graph — computing it hierarchically avoids
materializing a 100,000^2 latency matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.net.topology import Topology


@dataclass(frozen=True)
class TransitStubParams:
    """Structural and latency parameters; defaults are the paper's."""

    transit_domains: int = 120
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit: int = 5
    stub_nodes_per_stub_domain: int = 2
    extra_domain_edges: int = 120  # chords over the domain ring
    transit_to_transit: float = 0.100  # seconds
    transit_to_stub: float = 0.020
    stub_to_stub: float = 0.005
    node_to_node: float = 0.001

    def __post_init__(self) -> None:
        if min(
            self.transit_domains,
            self.transit_nodes_per_domain,
            self.stub_domains_per_transit,
            self.stub_nodes_per_stub_domain,
        ) < 1:
            raise ValueError("all structural counts must be >= 1")
        if min(
            self.transit_to_transit,
            self.transit_to_stub,
            self.stub_to_stub,
            self.node_to_node,
        ) < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def n_transit_nodes(self) -> int:
        return self.transit_domains * self.transit_nodes_per_domain

    @property
    def n_stub_nodes(self) -> int:
        return (
            self.n_transit_nodes
            * self.stub_domains_per_transit
            * self.stub_nodes_per_stub_domain
        )

    @classmethod
    def small(cls) -> "TransitStubParams":
        """A scaled-down topology for unit tests (fast to build)."""
        return cls(
            transit_domains=6,
            transit_nodes_per_domain=2,
            stub_domains_per_transit=2,
            stub_nodes_per_stub_domain=2,
            extra_domain_edges=4,
        )


# A stub-node position: (transit_node_index, stub_domain_index, stub_node_index)
StubPos = Tuple[int, int, int]


def _domain_edges(
    p: TransitStubParams, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """The top-level domain graph's edges: a ring plus random chords
    (connected by construction, like GT-ITM's random top-level graph
    conditioned on connectivity).

    The caller draws from ``rng`` once per edge, so their order is part of
    the topology.  It is the order ``networkx.Graph.edges()`` walks the
    same graph in: nodes, then each node's neighbours, by insertion, an
    edge reported from the endpoint visited first.
    """
    n_domains = p.transit_domains
    adj: Dict[int, Dict[int, None]] = {d: {} for d in range(n_domains)}

    def link(a: int, b: int) -> None:
        adj[a][b] = None
        adj[b][a] = None

    if n_domains > 1:
        for d in range(n_domains):
            link(d, (d + 1) % n_domains)
        added = attempts = 0
        while added < p.extra_domain_edges and attempts < p.extra_domain_edges * 20:
            attempts += 1
            a, b = (int(x) for x in rng.integers(0, n_domains, size=2))
            if a != b and b not in adj[a]:
                link(a, b)
                added += 1
    # Domains were inserted in index order, so "visited first" is "smaller".
    return [(a, b) for a, nbrs in adj.items() for b in nbrs if a < b]


class TransitStubTopology(Topology):
    """The GT-ITM transit-stub latency oracle.

    Overlay nodes attach to stub nodes uniformly at random (the paper
    assigns ~20 overlay nodes per stub node at the 100,000 scale, which is
    what a uniform assignment produces in expectation).
    """

    def __init__(
        self,
        params: Optional[TransitStubParams] = None,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        self.params = params if params is not None else TransitStubParams()
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._attached: Dict[Hashable, int] = {}  # key -> global stub index
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self) -> None:
        # Here, not at module scope: only a process that builds a
        # transit-stub pays for loading scipy.sparse (0.2 s, 35 MB).
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        p = self.params
        rng = self._rng
        n_domains = p.transit_domains
        tn_per = p.transit_nodes_per_domain
        n_tn = p.n_transit_nodes

        # Transit-node graph: intra-domain ring + one inter-domain edge per
        # domain-graph edge, endpoints chosen uniformly.
        rows: List[int] = []
        cols: List[int] = []

        def add_edge(u: int, v: int) -> None:
            rows.append(u)
            cols.append(v)
            rows.append(v)
            cols.append(u)

        for d in range(n_domains):
            base = d * tn_per
            if tn_per > 1:
                for i in range(tn_per):
                    add_edge(base + i, base + (i + 1) % tn_per)
        for a, b in _domain_edges(p, rng):
            u = a * tn_per + int(rng.integers(0, tn_per))
            v = b * tn_per + int(rng.integers(0, tn_per))
            add_edge(u, v)

        data = np.ones(len(rows), dtype=np.int8)
        adj = csr_matrix((data, (rows, cols)), shape=(n_tn, n_tn))
        # Hop-count matrix over transit nodes (480x480 at paper scale).
        self._transit_hops = shortest_path(
            adj, method="D", unweighted=True, directed=False
        )
        if np.isinf(self._transit_hops).any():
            raise RuntimeError("transit graph is not connected")

        # Stub-node indexing: global stub index s ->
        #   transit node  s // (stub_domains_per_transit*stub_nodes_per_stub_domain)
        #   stub domain  (s // stub_nodes_per_stub_domain) % stub_domains_per_transit
        self._stubs_per_tn = p.stub_domains_per_transit * p.stub_nodes_per_stub_domain
        self.n_stub_nodes = p.n_stub_nodes

    # -- attachment -----------------------------------------------------------

    def attach(self, key: Hashable) -> None:
        if key in self._attached:
            return
        self._attached[key] = int(self._rng.integers(0, self.n_stub_nodes))

    def attach_at(self, key: Hashable, stub_index: int) -> None:
        """Deterministic attachment (tests and worked examples)."""
        if not 0 <= stub_index < self.n_stub_nodes:
            raise ValueError(f"stub index {stub_index} out of range")
        self._attached[key] = stub_index

    def detach(self, key: Hashable) -> None:
        self._attached.pop(key, None)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._attached

    def stub_of(self, key: Hashable) -> int:
        return self._attached[key]

    def stub_position(self, stub_index: int) -> StubPos:
        p = self.params
        tn = stub_index // self._stubs_per_tn
        rem = stub_index % self._stubs_per_tn
        sd = rem // p.stub_nodes_per_stub_domain
        sn = rem % p.stub_nodes_per_stub_domain
        return (tn, sd, sn)

    # -- latency -----------------------------------------------------------

    def stub_latency(self, sa: int, sb: int) -> float:
        """Latency between two stub attachment points (excluding the final
        node-to-node hop, which :meth:`latency` adds once)."""
        p = self.params
        if sa == sb:
            return 0.0
        ta, da, _ = self.stub_position(sa)
        tb, db, _ = self.stub_position(sb)
        if ta == tb and da == db:
            return p.stub_to_stub
        hops = float(self._transit_hops[ta, tb])
        return 2.0 * p.transit_to_stub + hops * p.transit_to_transit

    def latency(self, a: Hashable, b: Hashable) -> float:
        try:
            sa = self._attached[a]
            sb = self._attached[b]
        except KeyError as exc:
            raise KeyError(f"latency query for unattached key: {exc}") from exc
        return self.stub_latency(sa, sb) + self.params.node_to_node

    # -- bulk helpers for the scalable engine ---------------------------------

    def sample_stub_indices(self, n: int) -> np.ndarray:
        """Vectorized attachment-point sampling for the scalable engine."""
        return self._rng.integers(0, self.n_stub_nodes, size=n)

    def latency_sample(self, n_pairs: int) -> np.ndarray:
        """Latencies of ``n_pairs`` uniformly random stub pairs (used to
        calibrate the multicast-delay model at scale)."""
        sa = self._rng.integers(0, self.n_stub_nodes, size=n_pairs)
        sb = self._rng.integers(0, self.n_stub_nodes, size=n_pairs)
        p = self.params
        ta = sa // self._stubs_per_tn
        tb = sb // self._stubs_per_tn
        da = (sa % self._stubs_per_tn) // p.stub_nodes_per_stub_domain
        db = (sb % self._stubs_per_tn) // p.stub_nodes_per_stub_domain
        hops = self._transit_hops[ta, tb]
        out = 2.0 * p.transit_to_stub + hops * p.transit_to_transit
        same_domain = (ta == tb) & (da == db)
        out[same_domain] = p.stub_to_stub
        out[sa == sb] = 0.0
        return out + p.node_to_node
