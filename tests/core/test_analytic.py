"""Analytic model tests (§2's formulas and worked numbers, and the level
rule in its scalar and array forms)."""

import itertools

import numpy as np
import pytest

from repro.core.analytic import (
    RAISE_FRACTION,
    CostModel,
    estimate_join_level,
    expected_error_rate,
    expected_multicast_steps,
    level_shift,
    level_shifts,
    stationary_level,
    stationary_levels,
)
from repro.core.errors import ConfigError
from repro.experiments.predict import system_event_rate
from repro.experiments.scalable import ScalableParams
from repro.sim.rng import RandomStreams
from repro.workloads.bandwidth_dist import (
    GnutellaBandwidthDistribution,
    threshold_from_bandwidth,
)
from repro.workloads.lifetime import GnutellaLifetimeDistribution


class TestPaperNumbers:
    def test_modem_example_6000_pointers(self):
        """§2: L=3600, m=3, i=1000, r=1 → a 5 kbps node collects ~6000."""
        m = CostModel(
            mean_lifetime_s=3600.0,
            changes_per_lifetime=3.0,
            redundancy=1.0,
            message_bits=1000.0,
        )
        assert m.pointers_for_bandwidth(5000.0) == pytest.approx(6000.0)

    def test_abstract_headline_under_1kbps_per_1000(self):
        """Abstract: collecting 1,000 pointers costs less than 1 kbps."""
        m = CostModel()
        assert m.bandwidth_per_1000_pointers() < 1000.0

    def test_level_shift_doubles_pointers(self):
        """§2 autonomy example: raising one level doubles the list and
        returns the bandwidth cost to the threshold."""
        m = CostModel()
        n = 100_000
        for level in range(1, 6):
            assert m.peer_list_size(n, level - 1) == pytest.approx(
                2 * m.peer_list_size(n, level)
            )
            assert m.level_cost(n, level - 1) == pytest.approx(
                2 * m.level_cost(n, level)
            )

    def test_intro_probing_comparison(self):
        """The probing strawman maintains 600 pointers at 10 kbps; the
        multicast model maintains ~12000 at the same budget (L=2h)."""
        peer_window = CostModel(mean_lifetime_s=7200.0, changes_per_lifetime=3.0)
        assert peer_window.pointers_for_bandwidth(10_000) == pytest.approx(24_000.0)


class TestCostModel:
    def test_inverse_functions(self):
        m = CostModel()
        for w in (500.0, 5000.0, 1e6):
            assert m.bandwidth_for_pointers(m.pointers_for_bandwidth(w)) == pytest.approx(w)

    def test_stationary_level(self):
        """The smallest level whose cost fits under the threshold."""
        m = CostModel()
        n = 100_000
        for threshold in (500.0, 5_000.0, 50_000.0, 1e9):
            level = stationary_level(m.level_cost(n, 0), threshold, 64)
            assert m.level_cost(n, level) <= threshold + 1e-9
            if level > 0:
                assert m.level_cost(n, level - 1) > threshold
        assert stationary_level(m.level_cost(n, 0), 500.0, 3) == 3  # clamped

    def test_level_zero_when_affordable(self):
        m = CostModel()
        assert stationary_level(m.level_cost(100, 0), 1e9, 64) == 0

    def test_empty_system(self):
        assert stationary_level(CostModel().level_cost(0, 0), 100.0, 64) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            CostModel(mean_lifetime_s=0.0)
        with pytest.raises(ConfigError):
            CostModel().bandwidth_for_pointers(-1.0)
        for threshold in (0.0, -1.0):
            with pytest.raises(ConfigError):
                stationary_level(CostModel().level_cost(10, 0), threshold, 64)
            with pytest.raises(ConfigError):
                stationary_levels(1.0, np.array([1.0, threshold]), 64)


class TestLevelRule:
    """The scalar and array forms of the level rule agree on every input."""

    def test_stationary_levels_is_stationary_level_of_each(self):
        """Every seeded threshold of seeds 0-9 at n = 100,000, and the
        thresholds that put ``cost0 / threshold`` on a power of two or on
        a float beside one — where a ``log2`` off in its last bit would
        show as a different ceiling."""
        p = ScalableParams()  # the paper's common case, max_level 18
        n = p.n_target
        rate = system_event_rate(n, GnutellaLifetimeDistribution().mean)  # seeding's
        cost0 = rate * p.event_bits
        ratios = np.array([2.0**k for k in range(-3, 24)])
        beside = [ratios]
        for toward in (0.0, np.inf):
            for _ in range(3):
                beside.append(np.nextafter(beside[-1], toward))
            beside.append(ratios)
        around = cost0 / np.concatenate(beside)
        around = np.concatenate(
            [around, np.nextafter(around, 0.0), np.nextafter(around, np.inf), [cost0]]
        )
        drawn = [
            threshold_from_bandwidth(
                np.asarray(GnutellaBandwidthDistribution().sample(
                    RandomStreams(seed).get("bandwidth"), n
                )),
                p.threshold_fraction, p.threshold_floor_bps,
            )
            for seed in range(10)
        ]
        for thresholds in [around] + drawn:
            assert stationary_levels(cost0, thresholds, p.max_level).tolist() == [
                stationary_level(cost0, t, p.max_level) for t in thresholds.tolist()
            ]
        assert set(stationary_levels(cost0, around, p.max_level).tolist()) >= set(range(19))
        # No rate yet: everybody affords level 0.
        assert not stationary_levels(0.0, around, p.max_level).any()
        assert not any(stationary_level(0.0, t, p.max_level) for t in around.tolist())

    def test_level_shifts_is_level_shift_of_each(self):
        """Costs on the threshold, on ``RAISE_FRACTION`` of it and on the
        floats beside each, at level 0 and above."""
        rows = []
        for threshold in (500.0, 1000.0, 12_345.678):
            edges = [threshold, RAISE_FRACTION * threshold]
            costs = [0.0, 3.0 * threshold] + [
                c for e in edges for c in (e, np.nextafter(e, 0.0), np.nextafter(e, np.inf))
            ]
            rows += itertools.product((0, 1, 5), costs, (threshold,))
        levels, costs, thresholds = (np.array(col) for col in zip(*rows))
        for fraction in (RAISE_FRACTION, 0.25):
            scalar = [level_shift(l, c, t, fraction) for l, c, t in rows]
            assert level_shifts(levels, costs, thresholds, fraction).tolist() == scalar
        t = 1000.0
        assert level_shift(3, t, t, RAISE_FRACTION) == 0
        assert level_shift(3, np.nextafter(t, np.inf), t, RAISE_FRACTION) == 1
        assert level_shift(3, RAISE_FRACTION * t, t, RAISE_FRACTION) == 0
        below = np.nextafter(RAISE_FRACTION * t, 0.0)
        assert level_shift(3, below, t, RAISE_FRACTION) == -1
        assert level_shift(0, below, t, RAISE_FRACTION) == 0


class TestJoinEstimate:
    def test_equal_budgets_same_level(self):
        assert estimate_join_level(2, 1000.0, 1000.0) == 2

    def test_double_budget_one_level_stronger(self):
        assert estimate_join_level(2, 1000.0, 2000.0) == 1

    def test_half_budget_one_level_weaker(self):
        assert estimate_join_level(2, 1000.0, 500.0) == 3

    def test_clamped_at_zero(self):
        assert estimate_join_level(1, 1000.0, 1e9) == 0

    def test_non_power_of_two_ceils(self):
        # W_T/W_X = 3 → log2(3) ≈ 1.58 → ceil → +2 levels
        assert estimate_join_level(0, 3000.0, 1000.0) == 2

    def test_zero_top_cost(self):
        assert estimate_join_level(3, 0.0, 100.0) == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            estimate_join_level(-1, 100.0, 100.0)
        with pytest.raises(ConfigError):
            estimate_join_level(0, 100.0, 0.0)


class TestErrorAndSteps:
    def test_error_rate_formula(self):
        """§5.1: 25 s staleness over 135-minute lifetimes ≈ 0.0031."""
        assert expected_error_rate(24.9, 135 * 60) == pytest.approx(0.0031, abs=2e-4)

    def test_error_rate_capped(self):
        assert expected_error_rate(1e9, 1.0) == 1.0

    def test_multicast_steps_log2(self):
        """§5.1: log2(100000) ≈ 16.6 steps."""
        assert expected_multicast_steps(100_000) == pytest.approx(16.6, abs=0.05)
        assert expected_multicast_steps(1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            expected_error_rate(-1.0, 10.0)
