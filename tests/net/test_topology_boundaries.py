"""Structural boundary cases for the topology generators."""

import numpy as np

from repro.net.transit_stub import TransitStubParams, TransitStubTopology
from tests.conftest import small_transit_stub


class TestDegenerateTopologies:
    def test_single_domain(self):
        params = TransitStubParams(
            transit_domains=1,
            transit_nodes_per_domain=4,
            stub_domains_per_transit=2,
            stub_nodes_per_stub_domain=2,
            extra_domain_edges=0,
        )
        topo = TransitStubTopology(params, seed=1)
        topo.attach_at("a", 0)
        topo.attach_at("b", topo.n_stub_nodes - 1)
        lat = topo.latency("a", "b")
        assert lat > 0
        assert np.isfinite(topo._transit_hops).all()

    def test_single_transit_node_per_domain(self):
        params = TransitStubParams(
            transit_domains=3,
            transit_nodes_per_domain=1,
            stub_domains_per_transit=1,
            stub_nodes_per_stub_domain=1,
            extra_domain_edges=0,
        )
        topo = TransitStubTopology(params, seed=2)
        assert topo.n_stub_nodes == 3
        topo.attach_at("a", 0)
        topo.attach_at("b", 2)
        assert topo.latency("a", "b") > params.node_to_node

    def test_two_domains_ring(self):
        params = TransitStubParams(
            transit_domains=2,
            transit_nodes_per_domain=2,
            stub_domains_per_transit=1,
            stub_nodes_per_stub_domain=1,
            extra_domain_edges=0,
        )
        topo = TransitStubTopology(params, seed=3)
        assert np.isfinite(topo._transit_hops).all()

    def test_latency_sample_empty(self):
        topo = TransitStubTopology(small_transit_stub(), seed=0)
        out = topo.latency_sample(0)
        assert out.shape == (0,)


class TestParallelBoundaries:
    def test_single_rank(self):
        from repro.sim.parallel import ParallelSimulator

        psim = ParallelSimulator(1, lookahead=1.0)
        ran = []
        psim.lps[0].schedule_local(0.5, ran.append, 1)
        psim.lps[0].send(0, 0.1, ran.append, 2)  # self-send, no lookahead
        psim.run(until=2.0)
        assert sorted(ran) == [1, 2]


class TestScalableBoundaries:
    def test_max_level_clamps_deep_nodes(self):
        from repro.experiments.scalable import ScalableParams, ScalableSim

        params = ScalableParams(
            n_target=500, duration_s=60.0, warmup_s=20.0, max_level=3,
            threshold_floor_bps=1.0,  # absurdly weak nodes want level 10+
        )
        result = ScalableSim(params).run()
        assert all(r.level <= 3 for r in result.rows)

    def test_tiny_population(self):
        from repro.experiments.scalable import ScalableParams, ScalableSim

        params = ScalableParams(n_target=2, duration_s=30.0, warmup_s=10.0)
        result = ScalableSim(params).run()
        assert result.final_population >= 1
