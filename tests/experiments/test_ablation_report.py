"""Ablation and report-formatting tests."""

import pytest

from repro.experiments.ablation import (
    ablate_hysteresis,
    ablate_probe_interval,
    ablate_target_policy,
    ablate_threshold_floor,
)
from repro.experiments.report import format_cell, format_table, print_table
from repro.experiments.scalable import ScalableParams

FAST = ScalableParams(n_target=2000, duration_s=200.0, warmup_s=80.0, seed=5)


class TestAblations:
    def test_probe_interval_error_monotone(self):
        rows = ablate_probe_interval([5.0, 60.0], base=FAST)
        assert rows[1][1] > rows[0][1]

    def test_strongest_first_beats_random_targets(self):
        """The §4.2 design choice: strongest-first always covers; random
        choice strands subtrees in deep hierarchies."""
        worst_random = 1.0
        for seed in range(3):
            r = ablate_target_policy(n_members=1024, id_bits=24, seed=seed)
            assert r["strongest_coverage"] == 1.0
            worst_random = min(worst_random, r["random_coverage"])
        assert worst_random < 1.0

    def test_hysteresis_width_controls_flapping(self):
        rows = dict(ablate_hysteresis([0.3, 0.95]))
        assert rows[0.95] > rows[0.3]

    def test_threshold_floor_sets_depth(self):
        rows = dict(ablate_threshold_floor([2000.0, 125.0], base=FAST))
        assert rows[125.0] >= rows[2000.0]

    def test_digitization_robustness(self):
        """Figure 5's majority-at-level-0 claim must survive ±10 points of
        digitization uncertainty in the bandwidth CDF."""
        from dataclasses import replace

        from repro.experiments.ablation import ablate_bandwidth_digitization

        base = replace(FAST, n_target=4000, lifetime_rate=0.2)
        rows = dict(ablate_bandwidth_digitization([-0.1, 0.0, 0.1], base))
        assert rows[-0.1] <= rows[0.0] <= rows[0.1]  # monotone in the shift

    def test_lifetime_shape_invariance(self):
        """The level structure depends on the mean lifetime, not the
        distribution's shape; error rates stay in one band."""
        from repro.experiments.ablation import ablate_lifetime_shape

        rows = ablate_lifetime_shape(FAST)
        levels = [n for _, _, n in rows]
        assert max(levels) - min(levels) <= 1
        errors = [e for _, e, _ in rows]
        assert max(errors) < 2.5 * min(errors)

    def test_lifetime_shape_runs_at_the_base_rate(self):
        """Each shape is built at ``base.lifetime_rate``: at rate 1 the
        engine refused a base at any other rate."""
        from repro.experiments.ablation import ablate_lifetime_shape

        base = ScalableParams(n_target=200, duration_s=60.0, warmup_s=20.0, seed=5,
                              lifetime_rate=0.5)
        assert [name for name, _, _ in ablate_lifetime_shape(base)] == [
            "lognormal (paper)", "exponential", "weibull k=0.6"]


class TestReport:
    def test_format_cell(self):
        assert format_cell(0.0) == "0"
        assert format_cell(12345.6) == "12,346"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(0.00123) == "0.00123"
        assert format_cell("x") == "x"

    def test_format_table_aligned(self):
        text = format_table(["a", "bb"], [[1, 2.5], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(l) for l in lines}
        assert len(widths) == 1  # all lines equal width

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_print_table_returns_text(self, capsys):
        text = print_table("T", ["x"], [[1]])
        out = capsys.readouterr().out
        assert "== T ==" in out
        assert text.strip() in out
