"""One-hop DHT and random-walk baseline tests."""

import pytest

from repro.baselines.onehop import OneHopDHTScheme
from repro.baselines.random_walk import RandomWalkScheme


class TestOneHop:
    def test_cost_scales_with_n(self):
        small = OneHopDHTScheme(n_nodes=10_000)
        large = OneHopDHTScheme(n_nodes=100_000)
        assert large.per_node_cost_bps() == pytest.approx(
            10 * small.per_node_cost_bps()
        )

    def test_weak_node_gets_nothing_when_unaffordable(self):
        """§6: one-hop costs too much for weak nodes at scale."""
        scheme = OneHopDHTScheme(n_nodes=100_000, mean_lifetime_s=8100.0)
        # 100k nodes: ~2 changes/lifetime... default 3: cost = 100000*3/8100*1000 ≈ 37kbps
        assert scheme.pointers_for_bandwidth(500.0) == 0.0
        assert scheme.pointers_for_bandwidth(1e6) == 100_000.0

    def test_all_or_nothing_crossover(self):
        scheme = OneHopDHTScheme(n_nodes=50_000)
        cost = scheme.per_node_cost_bps()
        assert scheme.pointers_for_bandwidth(cost * 0.99) == 0.0
        assert scheme.pointers_for_bandwidth(cost * 1.01) == 50_000.0

    def test_homogeneous_flag(self):
        assert not OneHopDHTScheme(1000).heterogeneous

    def test_validation(self):
        with pytest.raises(ValueError):
            OneHopDHTScheme(n_nodes=0)
        with pytest.raises(ValueError):
            OneHopDHTScheme(1000, mean_lifetime_s=-1.0)


class TestRandomWalk:
    def test_cost_model_linear_in_pointers(self):
        scheme = RandomWalkScheme(mean_lifetime_s=3600.0)
        assert scheme.bandwidth_for_pointers(2000.0) == pytest.approx(
            2 * scheme.bandwidth_for_pointers(1000.0)
        )

    def test_less_efficient_than_peerwindow(self):
        """The §2 model (multicast, m=3 events per lifetime) beats active
        walking per pointer maintained."""
        from repro.core.analytic import CostModel

        pw = CostModel(mean_lifetime_s=3600.0)
        rw = RandomWalkScheme(mean_lifetime_s=3600.0)
        budget = 5000.0
        assert pw.pointers_for_bandwidth(budget) > rw.pointers_for_bandwidth(budget)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWalkScheme(mean_lifetime_s=0.0)
