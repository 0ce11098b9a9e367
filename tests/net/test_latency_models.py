"""Latency model tests."""

import zlib

import pytest

from repro.net.latency import PairwiseLatencyModel, UniformLatencyModel


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


#: Keys whose reprs exercise the hash text: ints, ``"host:port"``
#: strings, non-ASCII text, and quotes and a backslash inside a repr.
KEYS = [1, 2, 70_000, -5, "10.0.0.1:4000", "10.0.0.2:4000", "nœud-é", "it's \"q\" \\ x", "b"]


def reference(model, a, b):
    """The pair hash as first written: format the pair, encode, CRC."""
    if a == b:
        return model.loopback
    ra, rb = repr(a), repr(b)
    text = f"({ra}, {rb})" if ra <= rb else f"({rb}, {ra})"
    return model.base + model.spread * ((zlib.crc32(text.encode("utf-8")) % 9973) / 9973.0)


class TestPairwiseLatencyModel:
    def test_pinned_values(self):
        m = PairwiseLatencyModel()
        assert m.pair_latency(1, 2) == 0.06256592800561517
        assert m.pair_latency("10.0.0.1:4000", "10.0.0.2:4000") == 0.06285671312543868
        assert m.pair_latency("nœud-é", 7) == 0.06875263210668806
        assert m.pair_latency("it's \"q\" \\ x", "b") == 0.06258197132257094
        assert m.pair_latency(3, 3) == 0.0

    def test_attached_latency_is_the_pair_latency_bit_for_bit(self):
        """``latency`` resumes a CRC kept per key; it must be the hash of
        the formatted pair, in both argument orders and at loopback."""
        m = PairwiseLatencyModel(base=0.03, spread=0.05, loopback=0.002)
        for key in KEYS:
            m.attach(key)
        for a in KEYS:
            for b in KEYS:
                assert m.latency(a, b) == m.pair_latency(a, b) == reference(m, a, b), (a, b)
                assert m.latency(a, b) == m.latency(b, a)
        assert m.latency("b", "b") == 0.002

    def test_detach_then_reattach(self):
        m = PairwiseLatencyModel()
        m.attach("x:1")
        m.attach(9)
        before = m.latency("x:1", 9)
        m.detach("x:1")
        assert "x:1" not in m
        with pytest.raises(KeyError):
            m.latency("x:1", 9)
        m.attach("x:1")
        assert m.latency(9, "x:1") == before == reference(m, "x:1", 9)
