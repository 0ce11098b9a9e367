"""MetricsRegistry/Dist/aggregation unit tests."""

import pytest

from repro.obs.metrics import (
    Dist,
    MetricsRegistry,
    aggregate_snapshots,
    flatten_snapshot,
)


class TestDist:
    def test_moments(self):
        d = Dist()
        for v in (1.0, 2.0, 3.0):
            d.observe(v)
        assert d.count == 3
        assert d.mean == pytest.approx(2.0)
        assert d.min == 1.0 and d.max == 3.0
        assert d.stdev == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_empty_dist_is_safe(self):
        d = Dist()
        assert d.mean == 0.0 and d.stdev == 0.0
        assert d.as_dict()["min"] == 0.0

    def test_repeated_observe_rounds_as_single_observes(self):
        """A tick's probe RTTs are folded as one repeated observe.  Its sums
        must be k additions in turn: ``k * 0.1`` (or ``fsum``) rounds
        differently, and the tournament's metric bytes would move."""
        for k in (1, 7, 199, 999):
            single, batched = Dist(), Dist()
            for _ in range(k):
                single.observe(2 * 0.05)
            batched.observe_repeat(2 * 0.05, k)
            assert batched.as_dict() == single.as_dict()
            assert (batched.total, batched.sumsq) == (single.total, single.sumsq)
        # The shortcut it must not take really does round differently.
        assert Dist().total + 999 * 0.1 != single.total

    def test_merge(self):
        a, b = Dist(), Dist()
        a.observe(1.0)
        b.observe(5.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 3
        assert a.min == 1.0 and a.max == 5.0
        assert a.mean == pytest.approx(3.0)

    def test_merge_empty_is_noop(self):
        a = Dist()
        a.observe(2.0)
        a.merge(Dist())
        assert a.count == 1

    def test_dict_round_trip(self):
        d = Dist()
        d.observe(4.0)
        d.observe(9.0)
        again = Dist.from_dict(d.as_dict())
        assert again.as_dict() == d.as_dict()


class TestMetricsRegistry:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("d", 2.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "dists": {}}

    def test_enabled_records(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("g", 7.0)
        reg.observe("d", 2.0)
        snap = reg.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 7.0
        assert snap["dists"]["d"]["count"] == 1

    def test_repeated_observe_records_nothing_for_zero(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe_repeat("probe.rtt", 0.1, 0)
        assert reg.dists == {}
        reg.observe_repeat("probe.rtt", 0.1, 3)
        assert reg.dists["probe.rtt"].count == 3
        off = MetricsRegistry(enabled=False)
        off.observe_repeat("probe.rtt", 0.1, 3)
        assert off.dists == {}

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("z")
        reg.inc("a")
        assert list(reg.snapshot()["counters"]) == ["a", "z"]


class TestAggregation:
    def test_counters_and_gauges_sum_dists_merge(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.inc("c", 1)
        b.inc("c", 2)
        a.set_gauge("peers", 10)
        b.set_gauge("peers", 20)
        a.observe("rtt", 0.1)
        b.observe("rtt", 0.3)
        agg = aggregate_snapshots([a.snapshot(), b.snapshot()])
        assert agg["nodes"] == 2
        assert agg["counters"]["c"] == 3
        assert agg["gauges"]["peers"] == 30
        assert agg["dists"]["rtt"]["count"] == 2
        assert agg["dists"]["rtt"]["mean"] == pytest.approx(0.2)

    def test_flatten_rows(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("c", 2)
        reg.observe("d", 5.0)
        rows = flatten_snapshot(reg.snapshot())
        assert ("counter", "c", 2) in rows
        assert ("dist", "d.mean", 5.0) in rows
        assert ("dist", "d.count", 1) in rows
