"""Gossip baseline tests."""

import pytest

from repro.baselines.gossip import GossipMulticastScheme


class TestScheme:
    def test_redundancy_divides_efficiency(self):
        tree = GossipMulticastScheme(redundancy=1.0)
        gossip = GossipMulticastScheme(redundancy=4.0)
        assert gossip.pointers_for_bandwidth(5000.0) == pytest.approx(
            tree.pointers_for_bandwidth(5000.0) / 4.0
        )

    def test_useful_fraction(self):
        assert GossipMulticastScheme(redundancy=4.0).useful_message_fraction() == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipMulticastScheme(redundancy=0.0)
