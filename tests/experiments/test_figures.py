"""Figure-level claims (§5), asserted at CI scale.

Each test states the paper's qualitative claim and checks the reproduced
trend.  Absolute scale differs (2k-10k nodes here vs 100k in the paper;
``benchmarks/bench_paper.py`` checks the paper-scale runs), but the
shapes are scale-free.
"""

import pytest

from repro.experiments.figures import (
    clear_cache,
    fig5_node_distribution,
    fig6_peer_list_sizes,
    fig7_error_rates,
    fig8_bandwidth,
    fig9_scalability_levels,
    fig11_adaptivity_levels,
)
from repro.experiments.scalable import ScalableParams

CI_COMMON = ScalableParams(n_target=8000, duration_s=600.0, warmup_s=200.0, seed=7)
CI_SWEEP = ScalableParams(n_target=8000, duration_s=400.0, warmup_s=150.0, seed=7)


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestFig5:
    def test_majority_at_level_zero(self):
        """Paper: 'more than half of the nodes running at level 0'."""
        rows = fig5_node_distribution(CI_COMMON)
        frac0 = next(f for lvl, _, f in rows if lvl == 0)
        assert frac0 > 0.5

    def test_multiple_levels_populated(self):
        rows = fig5_node_distribution(CI_COMMON)
        assert len(rows) >= 3


class TestFig6:
    def test_sizes_halve_and_are_tight(self):
        rows = fig6_peer_list_sizes(CI_COMMON)
        by_level = {lvl: (mean, lo, hi) for lvl, mean, lo, hi in rows}
        levels = sorted(by_level)
        for a, b in zip(levels, levels[1:]):
            if b == a + 1:
                assert by_level[a][0] / max(by_level[b][0], 1) == pytest.approx(
                    2.0, rel=0.4
                )
        # max ≈ min ("hard to be distinguished") at well-populated levels.
        mean, lo, hi = by_level[levels[0]]
        assert hi <= 1.5 * max(lo, 1.0)


class TestFig7:
    def test_error_below_paper_band(self):
        """Paper: error rate less than 0.5% at every level — our leave
        accounting includes the §4.1 detection delay, so allow up to 1%."""
        rows = fig7_error_rates(CI_COMMON)
        for lvl, err in rows:
            assert err < 0.01


class TestFig8:
    def test_input_tracks_list_size_and_output_top_heavy(self):
        bw = fig8_bandwidth(CI_COMMON)
        sizes = {lvl: mean for lvl, mean, _, _ in fig6_peer_list_sizes(CI_COMMON)}
        in_by_level = {lvl: i for lvl, i, _ in bw}
        levels = sorted(in_by_level)
        # Input decreases with level (list size halves).
        assert in_by_level[levels[0]] > in_by_level[levels[-1]]
        # Output concentrated at the strongest level.
        out_by_level = {lvl: o for lvl, _, o in bw}
        assert out_by_level[levels[0]] == max(out_by_level.values())

    def test_input_cost_per_1000_pointers_band(self):
        """Paper: ~500 bps per 1000 pointers; our churn model gives the
        same order (250-900 bps)."""
        bw = fig8_bandwidth(CI_COMMON)
        sizes = {lvl: mean for lvl, mean, _, _ in fig6_peer_list_sizes(CI_COMMON)}
        lvl0_in = next(i for lvl, i, _ in bw if lvl == 0)
        per_1000 = lvl0_in / sizes[0] * 1000.0
        assert 150.0 < per_1000 < 1200.0


class TestFig9and10:
    def test_levels_grow_with_scale(self):
        """Paper: small systems collapse to level 0; levels multiply as N
        grows."""
        points = fig9_scalability_levels(scales=[500, 2000, 8000], base=CI_SWEEP)
        frac0 = [dict(p.level_fractions).get(0, 0.0) for p in points]
        assert frac0[0] > frac0[-1]
        n_levels = [p.n_levels for p in points]
        assert n_levels[-1] >= n_levels[0]

    def test_smallest_scale_nearly_all_level0(self):
        points = fig9_scalability_levels(scales=[500], base=CI_SWEEP)
        assert dict(points[0].level_fractions).get(0, 0.0) > 0.85

    def test_error_rises_slightly_with_scale(self):
        points = fig9_scalability_levels(scales=[500, 2000, 8000], base=CI_SWEEP)
        errs = [p.mean_error_rate for p in points]
        assert errs[-1] >= errs[0] * 0.8  # rises or ~flat, never collapses
        # "the change is very slight": within a small factor across 16x N.
        assert errs[-1] < 5 * max(errs[0], 1e-5)


class TestFig11and12:
    def test_short_lifetimes_push_nodes_deeper(self):
        """Paper: at Lifetime_Rate 0.1 only ~15% hold level 0 and many
        more levels appear."""
        points = fig11_adaptivity_levels(rates=[0.1, 1.0, 10.0], base=CI_SWEEP)
        frac0 = [dict(p.level_fractions).get(0, 0.0) for p in points]
        assert frac0[0] < frac0[1] < frac0[2] + 1e-9
        n_levels = [p.n_levels for p in points]
        assert n_levels[0] > n_levels[2]

    def test_error_inverse_in_lifetime(self):
        """Paper: error ≈ multicast_delay / lifetime — about 10x higher at
        rate 0.1 than at rate 1."""
        points = fig11_adaptivity_levels(rates=[0.1, 1.0], base=CI_SWEEP)
        rows = {p.x: p.mean_error_rate for p in points}
        ratio = rows[0.1] / rows[1.0]
        assert 3.0 < ratio < 30.0
