"""Random-stream reproducibility tests."""

import numpy as np
import pytest

from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).get("churn").random(10)
        b = RandomStreams(7).get("churn").random(10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.get("churn").random(10)
        b = streams.get("topology").random(10)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = RandomStreams(1).get("x").random(10)
        b = RandomStreams(2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_get_returns_same_generator_object(self):
        streams = RandomStreams(0)
        assert streams.get("a") is streams.get("a")

    def test_adding_stream_does_not_perturb_existing(self):
        """The whole point of stream separation."""
        s1 = RandomStreams(3)
        _ = s1.get("a").random(5)
        tail1 = s1.get("a").random(5)

        s2 = RandomStreams(3)
        _ = s2.get("a").random(5)
        _ = s2.get("brand-new-component").random(100)
        tail2 = s2.get("a").random(5)
        assert np.array_equal(tail1, tail2)

    def test_fresh_resets_state(self):
        streams = RandomStreams(9)
        first = streams.get("x").random(4)
        streams.get("x").random(100)  # advance
        again = streams.fresh("x").random(4)
        assert np.array_equal(first, again)

    def test_spawn_indexed_substreams(self):
        streams = RandomStreams(5)
        a0 = streams.spawn("node", 0).random(5)
        a1 = streams.spawn("node", 1).random(5)
        a0_again = streams.spawn("node", 0).random(5)
        assert np.array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    def test_substream_spawns_at_first_draw_and_draws_as_spawn_does(self):
        streams = RandomStreams(5)
        lazy = streams.substream("node", 3)
        assert lazy._generator is None
        eager = streams.spawn("node", 3)
        assert lazy.integers(0, 1000) == eager.integers(0, 1000)
        assert lazy._generator is not None
        assert np.array_equal(lazy.random(5), eager.random(5))
        assert np.array_equal(lazy.choice(9, 3, replace=False), eager.choice(9, 3, replace=False))

    def test_contains(self):
        streams = RandomStreams(0)
        assert "x" not in streams
        streams.get("x")
        assert "x" in streams

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)
