"""Terminal-plot rendering tests."""

import pytest

from repro.experiments.plot import (
    bar_chart,
    level_distribution_chart,
    line_chart,
)


class TestBarChart:
    def test_bars_scale_to_peak(self):
        out = bar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_aligned(self):
        out = bar_chart([("x", 1.0), ("long", 1.0)])
        lines = out.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_title_first_line(self):
        assert bar_chart([("a", 1.0)], title="T").splitlines()[0] == "T"

    def test_zero_values_no_bars(self):
        out = bar_chart([("a", 0.0), ("b", 0.0)])
        assert "█" not in out

    def test_empty_and_invalid(self):
        assert "(no data)" in bar_chart([])
        with pytest.raises(ValueError):
            bar_chart([("a", -1.0)])
        with pytest.raises(ValueError):
            bar_chart([("a", 1.0)], width=0)


class TestLineChart:
    def test_grid_dimensions(self):
        out = line_chart([(0, 0), (1, 1)], width=20, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        assert len(rows) == 5

    def test_points_plotted_at_corners(self):
        out = line_chart([(0, 0), (10, 10)], width=20, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        body = [l.split("|", 1)[1] for l in rows]
        assert body[0].rstrip().endswith("*")  # max y at top-right
        assert body[-1].lstrip().startswith("*")  # min y at bottom-left

    def test_log_y_extents(self):
        out = line_chart([(1, 0.001), (2, 0.1)], log_y=True)
        assert "0.001" in out
        assert "0.1" in out

    def test_log_y_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart([(1, 0.0)], log_y=True)

    def test_empty(self):
        assert "(no data)" in line_chart([])


class TestLevelDistributionChart:
    def test_levels_labelled(self):
        out = level_distribution_chart([(0, 0.6), (1, 0.3), (2, 0.1)])
        assert "L0" in out and "L2" in out
        lines = out.splitlines()
        assert lines[1].count("█") > lines[3].count("█")
