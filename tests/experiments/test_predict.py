"""Analytic predictor tests: closed forms vs the simulation engines."""

import pytest

from repro.core.analytic import CostModel
from repro.experiments.predict import (
    predict_bps_per_1000_pointers,
    predict_error_rate,
    predict_level_distribution,
    predict_n_levels,
    system_event_rate,
)
from repro.experiments.scalable import ScalableParams, ScalableSim
from repro.workloads.lifetime import COMMON_MEAN_LIFETIME_S


class TestClosedForms:
    def test_event_rate(self):
        # 100k nodes, 8100s lifetimes, 2 changes: 24.7 events/s.
        assert system_event_rate(100_000, 8100.0, 2.0) == pytest.approx(24.69, abs=0.01)

    def test_paper_common_majority_level0(self):
        dist = predict_level_distribution(100_000)
        assert dist[0] > 0.5  # figure 5's headline

    def test_levels_grow_with_scale(self):
        small, large = (predict_level_distribution(n) for n in (5_000, 100_000))
        assert len(large) > len(small)

    def test_n_levels_matches_distribution_support(self):
        dist = predict_level_distribution(100_000)
        assert max(dist) + 1 == predict_n_levels(100_000)

    def test_lifetime_rate_01_about_ten_levels(self):
        """Paper figure 11: rate 0.1 at 100k → ~10 levels."""
        n = predict_n_levels(100_000, mean_lifetime_s=810.0)
        assert 9 <= n <= 11

    def test_input_bps_halves_per_level(self):
        """Figure 8's input at the predictor's m = 2: the event stream's
        share landing in a level-l prefix."""
        model = CostModel(mean_lifetime_s=COMMON_MEAN_LIFETIME_S, changes_per_lifetime=2.0)
        a = model.level_cost(100_000, 0)
        b = model.level_cost(100_000, 1)
        assert a == pytest.approx(2 * b)

    def test_bps_per_1000_pointers_constant(self):
        assert predict_bps_per_1000_pointers() == pytest.approx(
            1000 * 2 * 1000 / 8100.0
        )

    def test_error_rate_inverse_in_lifetime(self):
        slow = predict_error_rate(100_000, mean_lifetime_s=8100.0)
        fast = predict_error_rate(100_000, mean_lifetime_s=810.0)
        assert fast / slow == pytest.approx(10.0)

    def test_figure11_sweep_shape(self):
        short, long = (
            predict_level_distribution(100_000, mean_lifetime_s=COMMON_MEAN_LIFETIME_S * rate)
            for rate in (0.1, 10.0)
        )
        assert short.get(0, 0.0) < long.get(0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            system_event_rate(-1, 100.0)


class TestAgainstSimulation:
    def test_level_distribution_matches_scalable_engine(self):
        params = ScalableParams(n_target=5000, duration_s=400.0, warmup_s=150.0, seed=2)
        result = ScalableSim(params).run()
        predicted = predict_level_distribution(5000)
        simulated = {r.level: r.fraction for r in result.rows if r.population > 0}
        for level in set(predicted) | set(simulated):
            assert predicted.get(level, 0.0) == pytest.approx(
                simulated.get(level, 0.0), abs=0.08
            )

    def test_error_rate_matches_scalable_engine(self):
        params = ScalableParams(n_target=5000, duration_s=400.0, warmup_s=150.0, seed=2)
        result = ScalableSim(params).run()
        predicted = predict_error_rate(
            5000, mean_link_latency_s=0.78  # the transit-stub mean
        )
        assert result.mean_error_rate == pytest.approx(predicted, rel=0.5)
