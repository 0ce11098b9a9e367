"""Cross-scheme comparison tests: the paper's positioning claims."""

import pytest

from repro.baselines.explicit_probe import ExplicitProbeScheme
from repro.baselines.gossip import GossipMulticastScheme
from repro.baselines.onehop import OneHopDHTScheme
from repro.baselines.random_walk import RandomWalkScheme
from repro.core.analytic import CostModel

COMMON = dict(mean_lifetime_s=3600.0)


class TestEfficiencyOrdering:
    def test_peerwindow_beats_all_baselines_at_modem_budget(self):
        """At a 5 kbps modem budget in the §2 environment, tree-multicast
        PeerWindow collects the most pointers."""
        budget = 5000.0
        pw = CostModel(mean_lifetime_s=3600.0).pointers_for_bandwidth(budget)
        probing = ExplicitProbeScheme(mean_lifetime_s=3600.0).pointers_for_bandwidth(budget)
        gossip = GossipMulticastScheme(**COMMON).pointers_for_bandwidth(budget)
        onehop = OneHopDHTScheme(n_nodes=100_000, **COMMON).pointers_for_bandwidth(budget)
        walk = RandomWalkScheme(mean_lifetime_s=3600.0).pointers_for_bandwidth(budget)
        assert pw > probing
        assert pw > gossip
        assert pw > onehop
        assert pw > walk

    def test_gossip_is_peerwindow_divided_by_r(self):
        budget = 10_000.0
        pw = CostModel().pointers_for_bandwidth(budget)
        gossip = GossipMulticastScheme().pointers_for_bandwidth(budget)
        assert gossip == pytest.approx(pw / 4.0)

    def test_onehop_wins_only_for_strong_nodes_in_small_systems(self):
        """One-hop DHT gives the full membership when affordable — its
        advantage regime is small N + big budget; PeerWindow matches it
        there (level 0) and degrades gracefully elsewhere."""
        small = OneHopDHTScheme(n_nodes=5_000, mean_lifetime_s=8100.0)
        assert small.pointers_for_bandwidth(10_000.0) == 5_000.0
        big = OneHopDHTScheme(n_nodes=100_000, mean_lifetime_s=8100.0)
        assert big.pointers_for_bandwidth(10_000.0) == 0.0

    def test_probing_waste_dominates(self):
        """Probing's useful-message fraction is orders of magnitude below
        the tree multicast's (1) and even gossip's (1 / r)."""
        probing = ExplicitProbeScheme(mean_lifetime_s=7200.0)
        assert probing.useful_message_fraction() < 0.005
        assert GossipMulticastScheme().useful_message_fraction() == 0.25


class TestReports:
    def test_report_row_shape(self):
        d = ExplicitProbeScheme().report(10_000.0)
        assert sorted(d) == ["autonomic", "bandwidth_bps", "heterogeneous",
                             "pointers", "scheme", "useful_fraction"]
        assert d["scheme"] == "explicit-probe"
        assert d["pointers"] == 600.0
        assert not d["autonomic"]
