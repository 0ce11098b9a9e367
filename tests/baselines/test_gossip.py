"""Gossip baseline tests."""

import pytest

from repro.baselines.gossip import GossipMulticastScheme
from repro.core.analytic import CostModel


class TestScheme:
    def test_redundancy_divides_efficiency(self):
        tree = CostModel()
        gossip = GossipMulticastScheme()
        assert gossip.redundancy == 4.0
        assert gossip.pointers_for_bandwidth(5000.0) == pytest.approx(
            tree.pointers_for_bandwidth(5000.0) / 4.0
        )

    def test_useful_fraction(self):
        assert GossipMulticastScheme().useful_message_fraction() == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipMulticastScheme(mean_lifetime_s=0.0)
