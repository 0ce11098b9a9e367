"""Bandwidth meter tests."""

import math

import pytest

from repro.net.bandwidth import BandwidthMeter, EwmaRateMeter


class TestBandwidthMeter:
    def test_total_accumulates(self):
        m = BandwidthMeter()
        m.record(0.0, 100)
        m.record(1.0, 200)
        assert m.total_bits == 300

    def test_lifetime_rate(self):
        m = BandwidthMeter(t0=0.0)
        m.record(0.0, 500)
        m.record(50.0, 500)
        assert m.lifetime_rate(now=100.0) == pytest.approx(10.0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMeter().record(0.0, -1)


class TestEwmaRateMeter:
    def test_burst_then_decay(self):
        m = EwmaRateMeter(tau=10.0, t0=0.0)
        m.record(0.0, 1000)
        r0 = m.rate(0.0)
        assert r0 == pytest.approx(100.0)
        r1 = m.rate(10.0)
        assert r1 == pytest.approx(100.0 * math.exp(-1.0))

    def test_steady_stream_converges_to_rate(self):
        m = EwmaRateMeter(tau=5.0, t0=0.0)
        # 100 bits every 0.1s = 1000 bps
        t = 0.0
        for _ in range(2000):
            t += 0.1
            m.record(t, 100)
        assert m.rate(t) == pytest.approx(1000.0, rel=0.05)

    def test_zero_rate_initially(self):
        assert EwmaRateMeter().rate(100.0) == 0.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            EwmaRateMeter(tau=0.0)
        with pytest.raises(ValueError):
            EwmaRateMeter().record(0.0, -5)
