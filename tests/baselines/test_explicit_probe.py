"""Explicit-probing baseline tests — the intro's arithmetic, reproduced."""

import pytest

from repro.baselines.explicit_probe import ExplicitProbeScheme


class TestClosedForm:
    def test_intro_600_pointers_at_10kbps(self):
        """Intro: 10 kbps with 500-bit heartbeats every 30 s → 600
        pointers."""
        s = ExplicitProbeScheme(probe_period_s=30.0, heartbeat_bits=500.0)
        assert s.pointers_for_bandwidth(10_000.0) == pytest.approx(600.0)

    def test_intro_9958_percent_wasted(self):
        """Intro: with 2-hour lifetimes and 30 s probes, 239/240 of probes
        return positively."""
        s = ExplicitProbeScheme(
            probe_period_s=30.0, mean_lifetime_s=7200.0
        )
        assert 1.0 - s.useful_message_fraction() == pytest.approx(239.0 / 240.0)

    def test_inverse_functions(self):
        s = ExplicitProbeScheme()
        assert s.bandwidth_for_pointers(s.pointers_for_bandwidth(5000.0)) == pytest.approx(5000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitProbeScheme(probe_period_s=0.0)
        with pytest.raises(ValueError):
            ExplicitProbeScheme().bandwidth_for_pointers(-1.0)
