"""Replication / confidence-interval harness tests."""

import pytest

from repro.experiments.scalable import ScalableParams
from repro.experiments.stats import (
    MetricSummary,
    replicate,
    summarize_metric,
)

FAST = ScalableParams(n_target=1500, duration_s=200.0, warmup_s=80.0)


class TestSummarize:
    def test_interval_contains_mean(self):
        s = summarize_metric("x", [1.0, 2.0, 3.0, 4.0])
        assert s.ci_low < s.mean < s.ci_high
        assert s.mean == 2.5
        assert s.n == 4

    def test_single_value_degenerate(self):
        s = summarize_metric("x", [7.0])
        assert s.ci_low == s.ci_high == s.mean == 7.0

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        s90 = summarize_metric("x", values, confidence=0.90)
        s99 = summarize_metric("x", values, confidence=0.99)
        assert s99.half_width() > s90.half_width()

    def test_t_interval_wider_than_normal(self):
        """Small samples must use the t distribution (heavier tails)."""
        import numpy as np

        values = [1.0, 2.0, 3.0]
        s = summarize_metric("x", values, confidence=0.95)
        sem = np.std(values, ddof=1) / np.sqrt(3)
        normal_half = 1.96 * sem
        assert s.half_width() > normal_half

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_metric("x", [])
        with pytest.raises(ValueError):
            summarize_metric("x", [1.0], confidence=1.0)


class TestReplicate:
    def test_default_metrics_collected(self):
        out = replicate(FAST, seeds=[1, 2, 3])
        assert set(out) >= {"mean_error_rate", "frac_level0", "n_levels"}
        for summary in out.values():
            assert isinstance(summary, MetricSummary)
            assert summary.n == 3

    def test_error_rate_interval_positive_and_tight(self):
        out = replicate(FAST, seeds=[1, 2, 3, 4])
        err = out["mean_error_rate"]
        assert err.ci_low > 0
        assert err.half_width() < err.mean  # replications agree

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            replicate(FAST, seeds=[])
