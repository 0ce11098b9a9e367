"""Uniform latency model tests."""

import pytest

from repro.net.latency import UniformLatencyModel


class TestUniformLatencyModel:
    def test_constant_latency(self):
        m = UniformLatencyModel(latency=0.05)
        m.attach("a")
        m.attach("b")
        assert m.latency("a", "b") == 0.05

    def test_loopback(self):
        m = UniformLatencyModel(latency=0.05, loopback=0.001)
        m.attach("a")
        assert m.latency("a", "a") == 0.001

    def test_unattached_raises(self):
        m = UniformLatencyModel()
        m.attach("a")
        with pytest.raises(KeyError):
            m.latency("a", "b")

    def test_detach(self):
        m = UniformLatencyModel()
        m.attach("a")
        m.detach("a")
        assert "a" not in m

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(latency=-1.0)
        with pytest.raises(ValueError):
            UniformLatencyModel(latency=float("nan"))
