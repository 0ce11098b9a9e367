"""GT-ITM transit-stub topology tests."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import transit_stub
from repro.net.transit_stub import TransitStubParams, TransitStubTopology


@pytest.fixture(scope="module")
def paper_topo():
    return TransitStubTopology(TransitStubParams(), seed=0)


@pytest.fixture()
def small_topo():
    return TransitStubTopology(TransitStubParams.small(), seed=1)


class TestStructure:
    def test_paper_scale_counts(self, paper_topo):
        p = paper_topo.params
        assert p.n_transit_nodes == 480
        assert p.n_stub_nodes == 4800
        assert paper_topo.n_stub_nodes == 4800

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TransitStubParams(transit_domains=0)
        with pytest.raises(ValueError):
            TransitStubParams(transit_to_transit=-1.0)

    def test_transit_graph_connected(self, paper_topo):
        assert np.isfinite(paper_topo._transit_hops).all()

    def test_stub_positions_roundtrip(self, small_topo):
        p = small_topo.params
        seen = set()
        for s in range(small_topo.n_stub_nodes):
            tn, sd, sn = small_topo.stub_position(s)
            assert 0 <= tn < p.n_transit_nodes
            assert 0 <= sd < p.stub_domains_per_transit
            assert 0 <= sn < p.stub_nodes_per_stub_domain
            seen.add((tn, sd, sn))
        assert len(seen) == small_topo.n_stub_nodes


class TestLatencies:
    def test_same_stub_node_is_node_latency(self, small_topo):
        small_topo.attach_at("a", 0)
        small_topo.attach_at("b", 0)
        assert small_topo.latency("a", "b") == pytest.approx(
            small_topo.params.node_to_node
        )

    def test_same_stub_domain(self, small_topo):
        p = small_topo.params
        small_topo.attach_at("a", 0)
        small_topo.attach_at("b", 1)  # same stub domain, different stub node
        assert small_topo.latency("a", "b") == pytest.approx(
            p.stub_to_stub + p.node_to_node
        )

    def test_cross_domain_includes_transit(self, paper_topo):
        p = paper_topo.params
        paper_topo.attach_at("a", 0)
        paper_topo.attach_at("b", paper_topo.n_stub_nodes - 1)
        lat = paper_topo.latency("a", "b")
        # At least two stub-transit hops plus the final node hop.
        assert lat >= 2 * p.transit_to_stub + p.node_to_node
        # And the transit path contributes in whole 100ms hops.
        transit_part = lat - 2 * p.transit_to_stub - p.node_to_node
        assert transit_part % p.transit_to_transit == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, paper_topo):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sa, sb = rng.integers(0, paper_topo.n_stub_nodes, size=2)
            paper_topo.attach_at("x", int(sa))
            paper_topo.attach_at("y", int(sb))
            assert paper_topo.latency("x", "y") == pytest.approx(
                paper_topo.latency("y", "x")
            )

    def test_unattached_query_raises(self, small_topo):
        small_topo.attach_at("a", 0)
        with pytest.raises(KeyError):
            small_topo.latency("a", "ghost")

    def test_detach(self, small_topo):
        small_topo.attach("k")
        assert "k" in small_topo
        small_topo.detach("k")
        assert "k" not in small_topo

    def test_attach_is_idempotent(self, small_topo):
        small_topo.attach("k")
        stub = small_topo.stub_of("k")
        small_topo.attach("k")
        assert small_topo.stub_of("k") == stub

    def test_attach_at_range_checked(self, small_topo):
        with pytest.raises(ValueError):
            small_topo.attach_at("k", small_topo.n_stub_nodes)


class TestSampling:
    def test_latency_sample_matches_pointwise(self, paper_topo):
        """The vectorized sampler must agree with the scalar oracle."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            sa, sb = (int(x) for x in rng.integers(0, paper_topo.n_stub_nodes, 2))
            paper_topo.attach_at("p", sa)
            paper_topo.attach_at("q", sb)
            expected = paper_topo.latency("p", "q")
            got = (
                paper_topo.stub_latency(sa, sb) + paper_topo.params.node_to_node
            )
            assert got == pytest.approx(expected)

    def test_latency_sample_distribution_reasonable(self, paper_topo):
        lats = paper_topo.latency_sample(2000)
        assert lats.shape == (2000,)
        assert (lats >= 0).all()
        # The bulk of pairs cross the transit backbone (~hundreds of ms).
        assert 0.1 < float(np.mean(lats)) < 2.0

    def test_deterministic_given_seed(self):
        a = TransitStubTopology(TransitStubParams.small(), seed=42)
        b = TransitStubTopology(TransitStubParams.small(), seed=42)
        assert np.array_equal(a._transit_hops, b._transit_hops)


class TestSameGraph:
    """The domain graph was a ``networkx.Graph`` until the module stopped
    importing networkx; every ``rng`` draw after it depends on the order
    its edges are walked in."""

    @settings(max_examples=200, deadline=None)
    @given(
        domains=st.integers(1, 12),
        nodes_per_domain=st.integers(1, 4),
        extra_edges=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_walk_is_networkx_edge_order(
        self, domains, nodes_per_domain, extra_edges, seed
    ):
        nx = pytest.importorskip("networkx")
        p = TransitStubParams(
            transit_domains=domains,
            transit_nodes_per_domain=nodes_per_domain,
            extra_domain_edges=extra_edges,
        )
        rng = np.random.default_rng(seed)
        graph = nx.Graph()
        graph.add_nodes_from(range(domains))
        if domains > 1:
            for d in range(domains):
                graph.add_edge(d, (d + 1) % domains)
            added = attempts = 0
            while added < extra_edges and attempts < extra_edges * 20:
                attempts += 1
                a, b = rng.integers(0, domains, size=2)
                if a != b and not graph.has_edge(int(a), int(b)):
                    graph.add_edge(int(a), int(b))
                    added += 1
        walked_rng = np.random.default_rng(seed)
        assert transit_stub._domain_edges(p, walked_rng) == list(graph.edges())
        # ... having drawn the same numbers on the way.
        assert walked_rng.integers(0, 2**32) == rng.integers(0, 2**32)

    @pytest.mark.parametrize("seed, digest", [
        (0, "d5aa8d38c482d469976553efacf0e8155c5a405c0694a263f811a38bd06c0df8"),
        (1, "bb706744a5eabde91e4cd2de1144fb92963d8151c5fd4e7c62e41ab624da17b8"),
        (2, "c0aa65eae455c46524514cb57a336ebd53641425ec30c4e023f211bd9c617776"),
    ])
    def test_paper_topology_bytes_pinned(self, seed, digest):
        """Recorded with the networkx build (commit 70d5dba)."""
        topo = TransitStubTopology(TransitStubParams(), seed=seed)
        got = hashlib.sha256(
            topo._transit_hops.tobytes() + topo.sample_stub_indices(64).tobytes()
        ).hexdigest()
        assert got == digest

    def test_unreachable_graph_raises(self, monkeypatch):
        monkeypatch.setattr(transit_stub, "_domain_edges", lambda p, rng: [])
        with pytest.raises(RuntimeError, match="not connected"):
            TransitStubTopology(TransitStubParams.small(), seed=0)
