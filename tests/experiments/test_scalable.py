"""Scalable-engine tests: bookkeeping invariants and physical sanity."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import scalable
from repro.experiments.scalable import (
    COUNTER_TABLE_CELL_BUDGET,
    JOIN_DRAW_BLOCK,
    ScalableParams,
    ScalableSim,
    binomial_broadcast,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads.lifetime import ExponentialLifetime
from tests.test_costs import check


def fast_params(**kw):
    base = dict(n_target=2000, duration_s=300.0, warmup_s=100.0, seed=3)
    base.update(kw)
    return ScalableParams(**base)


@pytest.fixture(scope="module")
def fast_result():
    return ScalableSim(fast_params()).run()


class TestBroadcast:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=400))
    def test_full_coverage(self, seed, n):
        """The vectorized dissemination reaches every audience member."""
        rng = np.random.default_rng(seed)
        bits = 32
        subject = np.uint64(rng.integers(0, 1 << bits, dtype=np.uint64))
        levels = rng.integers(0, 5, size=n).astype(np.int32)
        # Build member ids sharing the subject's first `level` bits.
        suffix_bits = bits - levels
        ids = np.empty(n, dtype=np.uint64)
        for i in range(n):
            lvl = int(levels[i])
            prefix = (int(subject) >> (bits - lvl)) << (bits - lvl) if lvl else 0
            ids[i] = prefix | int(rng.integers(0, 1 << (bits - lvl)))
        _, unique_idx = np.unique(ids, return_index=True)
        ids = ids[unique_idx]
        levels = levels[unique_idx]
        root = int(np.lexsort((ids, levels))[0])
        depths, senders = binomial_broadcast(ids, levels, root, bits)
        assert (depths >= 0).all()
        assert depths[root] == 0
        assert senders.sum() == ids.size - 1  # exactly one receive each

    def test_depth_logarithmic(self):
        rng = np.random.default_rng(0)
        n, bits = 4096, 32
        ids = np.unique(rng.integers(0, 1 << bits, size=n, dtype=np.uint64))
        levels = np.zeros(ids.size, dtype=np.int32)
        depths, senders = binomial_broadcast(ids, levels, 0, bits)
        assert depths.max() <= 2.5 * np.log2(ids.size)
        assert senders[0] <= 2.0 * np.log2(ids.size)

    def test_empty_audience(self):
        depths, senders = binomial_broadcast(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int32), 0, 16
        )
        assert depths.size == 0


class TestBookkeeping:
    def test_population_stationary(self, fast_result):
        res = fast_result
        assert res.final_population == pytest.approx(res.params.n_target, rel=0.1)

    def test_level_fractions_sum_to_one(self, fast_result):
        total = sum(r.fraction for r in fast_result.rows)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_counts_match_oracle(self):
        """The prefix counters must agree with a direct recount."""
        sim = ScalableSim(fast_params(n_target=500, duration_s=100.0, warmup_s=50.0))
        res = sim.run()
        ids = sim.ids[sim.alive]
        bits = sim.p.id_bits
        for l in (0, 1, 3, 5):
            direct = np.bincount(
                (ids >> np.uint64(bits - l)).astype(np.int64), minlength=1 << l
            ) if l else np.array([ids.size])
            assert np.array_equal(sim._counts[l][: direct.size], direct)

    def test_level_counts_match_levels_array(self):
        sim = ScalableSim(fast_params(n_target=500, duration_s=100.0, warmup_s=50.0))
        sim.run()
        for l in range(sim.p.max_level + 1):
            expected = int(
                (sim.alive & (np.minimum(sim.levels, sim.p.max_level) == l)).sum()
            )
            assert int(sim._level_counts[l].sum()) == expected

    def test_peer_list_size_halves_per_level(self, fast_result):
        rows = {r.level: r for r in fast_result.rows if r.population > 0}
        levels = sorted(rows)
        for a, b in zip(levels, levels[1:]):
            if b == a + 1:
                ratio = rows[a].mean_list_size / max(rows[b].mean_list_size, 1)
                assert ratio == pytest.approx(2.0, rel=0.35)

    def test_max_min_list_sizes_tight(self, fast_result):
        """Figure 6: max and min within a level are 'hard to distinguish'."""
        for r in fast_result.rows:
            if r.population >= 10 and r.level <= 3:
                assert r.max_list_size <= 2.0 * max(r.min_list_size, 1.0)

    def test_event_counters_consistent(self, fast_result):
        res = fast_result
        assert res.joins > 0 and res.leaves > 0
        # Poisson joins at N/L over (warmup+duration).
        expected = res.params.n_target / (135 * 60.0) * (
            res.params.warmup_s + res.params.duration_s
        )
        assert res.joins == pytest.approx(expected, rel=0.4)


class TestErrorModel:
    def test_error_rates_small_but_positive(self, fast_result):
        for r in fast_result.rows:
            if r.population > 0:
                assert 0.0 < r.error_rate < 0.05

    def test_error_scales_with_probe_interval(self):
        fast = ScalableSim(fast_params(probe_interval_s=10.0, seed=4)).run()
        slow = ScalableSim(fast_params(probe_interval_s=120.0, seed=4)).run()
        assert slow.mean_error_rate > fast.mean_error_rate

    def test_bandwidth_proportional_to_list_size(self, fast_result):
        rows = [r for r in fast_result.rows if r.population > 5]
        if len(rows) >= 2:
            top, deep = rows[0], rows[-1]
            size_ratio = top.mean_list_size / max(deep.mean_list_size, 1.0)
            bw_ratio = top.in_bps / max(deep.in_bps, 1e-9)
            # Same order of magnitude (probe floor flattens the tail).
            assert 0.2 * size_ratio < bw_ratio < 5.0 * size_ratio

    def test_output_concentrated_at_top_levels(self, fast_result):
        """Figure 8: almost all multicast sends come from levels 0-1."""
        rows = {r.level: r for r in fast_result.rows if r.population > 0}
        if 0 in rows and len(rows) > 1:
            deepest = rows[max(rows)]
            assert rows[0].out_bps > deepest.out_bps


class TestValidation:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            ScalableParams(n_target=1)
        with pytest.raises(ValueError):
            ScalableParams(id_bits=63)
        with pytest.raises(ValueError):
            ScalableParams(lifetime_rate=0.0)
        with pytest.raises(ValueError):
            ScalableParams(max_level=0)
        ScalableParams(warmup_s=0.0)  # no warm-up is a valid choice

    @pytest.mark.parametrize(
        "field,value",
        [
            # A zero period used to reschedule its tick at one simulated
            # instant forever: run() never returned.
            ("measure_interval_s", 0.0),
            ("relevel_interval_s", 0.0),
            ("tree_sample_interval_s", -1.0),
            ("rate_window_s", 0.0),
            ("duration_s", 0.0),
            ("warmup_s", -1.0),
            ("measure_interval_s", float("nan")),
            # ZeroDivisionError at the first measure tick.
            ("probe_interval_s", 0.0),
            # Ran, and charged negative staleness.
            ("probe_timeout_s", -3.0),
            ("processing_delay_s", -0.5),
            # A ValueError from inside seed_population that named neither.
            ("threshold_fraction", 0.0),
            ("threshold_floor_bps", -1.0),
        ],
    )
    def test_time_fields_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScalableParams(**{field: value})

    def test_lifetime_dist_rate_must_be_the_params_rate(self):
        """A distribution at another rate used to win silently: the run
        churned at ``d.lifetime_rate`` under params that said otherwise."""
        params = ScalableParams(n_target=100, lifetime_rate=0.5, use_transit_stub=False)
        with pytest.raises(ValueError, match=r"lifetime_rate=0\.25.*lifetime_rate=0\.5"):
            ScalableSim(params, lifetime_dist=ExponentialLifetime(lifetime_rate=0.25))
        ScalableSim(params, lifetime_dist=ExponentialLifetime(lifetime_rate=0.5))

    def test_more_nodes_than_ids_rejected(self):
        """300 distinct ids out of 256: ``run()`` never returned."""
        with pytest.raises(ValueError, match="n_target=300.*id_bits=8"):
            ScalableParams(n_target=300, id_bits=8, max_level=4)
        ScalableParams(n_target=256, id_bits=8, max_level=4)

    def test_join_into_a_full_id_space_raises(self):
        sim = ScalableSim(ScalableParams(n_target=256, id_bits=8, max_level=4))
        sim._slot_of.update((value, value) for value in range(256))
        with pytest.raises(RuntimeError, match="id_bits"):
            sim._random_id()

    def test_second_run_refused(self):
        sim = ScalableSim(fast_params(n_target=100, duration_s=30.0, warmup_s=0.0))
        sim.run()
        with pytest.raises(RuntimeError, match="already run"):
            sim.run()

    def test_second_seeding_refused_before_anything_is_drawn(self):
        sim = ScalableSim(fast_params(n_target=500, use_transit_stub=False))
        sim.seed_population()

        def state():
            streams = [rng.bit_generator.state for rng in (sim._rng_bw, sim._rng_life)]
            return sim.population, len(sim._free), len(sim.sim), streams

        before = state()
        with pytest.raises(RuntimeError, match="already seeded"):
            sim.seed_population()
        assert state() == before

    def test_run_seeds_only_an_unseeded_sim(self):
        params = fast_params(n_target=300, duration_s=60.0, warmup_s=30.0)
        seeded = ScalableSim(params)
        seeded.seed_population()
        assert seeded.run() == ScalableSim(params).run()

    def test_counter_tables_have_a_cell_budget(self):
        """``max_level`` sizes two 2^(max_level+1)-cell tables; 40 would ask
        NumPy for terabytes from inside ``ScalableSim.__init__``."""
        with pytest.raises(ValueError, match=r"2,199,023,255,551 cells"):
            ScalableParams(max_level=40)
        deepest = COUNTER_TABLE_CELL_BUDGET.bit_length() - 2
        ScalableParams(max_level=deepest)
        with pytest.raises(ValueError, match="cells"):
            ScalableParams(max_level=deepest + 1)


class TestBatchSeeding:
    """``seed_population`` draws its ids in one call; these pin the two facts
    that make that the scalar loop's stream."""

    @pytest.mark.parametrize("bits", [8, 32, 33, 48, 62])
    def test_batch_draw_is_scalar_draws(self, bits):
        k = 257
        batch = np.random.default_rng(99).integers(0, 1 << bits, size=k, dtype=np.uint64)
        rng = np.random.default_rng(99)
        scalars = [int(rng.integers(0, 1 << bits, dtype=np.uint64)) for _ in range(k)]
        assert batch.tolist() == scalars

    @pytest.mark.parametrize("already", [0, 40])
    def test_random_ids_is_random_id_repeated(self, already):
        """With 200 of 256 possible ids wanted, most rounds collide: same
        ids in the same order as one scalar draw at a time with the
        collision skip, and the stream left at the same draw."""
        params = ScalableParams(n_target=200, id_bits=8, max_level=4, seed=5)
        sim = ScalableSim(params)
        taken = set(range(already))
        sim._slot_of.update((value, value) for value in taken)
        batch = sim._random_ids(200 - already).tolist()
        rng, loop = RandomStreams(params.seed).get("ids"), []
        while len(loop) < 200 - already:
            value = int(rng.integers(0, 1 << params.id_bits, dtype=np.uint64))
            if value not in taken:
                loop.append(value)
                taken.add(value)
        assert batch == loop
        assert sim._rng_ids.integers(1 << 30) == rng.integers(1 << 30)

    @pytest.mark.costs
    def test_seeding_leaves_no_per_node_entries_or_objects(self):
        check("scalable_seeding", 20_000)

    @pytest.mark.costs
    def test_pending_timers_leave_no_per_join_objects(self):
        check("scalable_churn", 5000, "tracked")

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seeded_schedule_is_the_scalar_loop(self, seed):
        """The per-node loop ``seed_population`` used to run, kept here as
        the reference: same events, same order — ties between refreshes
        and against timers queued before and after seeding included."""
        params = ScalableParams(
            n_target=3000, seed=seed, lifetime_rate=0.02, use_transit_stub=False
        )
        sim = ScalableSim(params)
        period = 2.0 * sim._mean_lifetime
        trace, expected = [], []
        sim._do_leave = lambda value: trace.append((sim.sim.now, "leave", value))
        sim._do_refresh = lambda value, every: trace.append(
            (sim.sim.now, "refresh", value, every)
        )
        sim.sim.schedule(period, trace.append, "tick queued before seeding")
        sim.seed_population()
        sim.sim.schedule(period, trace.append, "tick queued after seeding")

        ref = Simulator()
        lifetimes = sim.lifetimes.sample_residual(
            RandomStreams(seed).get("lifetime"), params.n_target
        )
        values = sim.ids[: params.n_target]  # node i sits in slot i
        assert (lifetimes > period).sum() > 50
        ref.schedule(period, expected.append, "tick queued before seeding")
        for value, lifetime in zip(values.tolist(), lifetimes.tolist()):
            ref.schedule(lifetime, lambda v=value: expected.append((ref.now, "leave", v)))
            if lifetime > period:
                ref.schedule(
                    period, lambda v=value: expected.append((ref.now, "refresh", v, period))
                )
        ref.schedule(period, expected.append, "tick queued after seeding")
        assert sim.sim.reserve(0) == ref.reserve(0)  # as many numbers taken
        sim.sim.run()
        ref.run()
        assert trace == expected
        assert sim.sim.events_executed == ref.events_executed == len(expected)


# ---------------------------------------------------------------------------
# Golden: the whole result, to the last bit
# ---------------------------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_scalable.json")
_SMALL = dict(n_target=2000, warmup_s=60.0, duration_s=120.0)
GOLDEN_CASES = {
    f"seed={seed},transit_stub={stub}": dict(_SMALL, seed=seed, use_transit_stub=stub)
    for seed in (0, 7)
    for stub in (True, False)
}
# The four above stay at level 0.  This one churns 50x faster and caps the
# levels: seven populated levels, level changes, refreshes, the level cap.
GOLDEN_CASES["seed=7,fast_churn"] = dict(
    _SMALL, seed=7, lifetime_rate=0.02, duration_s=600.0, max_level=6
)


# Cases that cross join-draw blocks (the four level-0 ones make ~45 joins
# and never leave the first), recorded at the commit before block draws
# existed: 2,153 joins each, and 5,914 from another lifetime class.
_CHURNY = dict(_SMALL, seed=3, lifetime_rate=0.02)
for _stub in (True, False):
    GOLDEN_CASES[f"seed=3,churny,transit_stub={_stub}"] = dict(
        _CHURNY, use_transit_stub=_stub
    )
GOLDEN_CASES["seed=1,exponential60"] = dict(
    _SMALL, seed=1, lifetime_dist=ExponentialLifetime(mean=60.0)
)


def golden_snapshot(lifetime_dist=None, **params) -> dict:
    """Every number one small run reports, floats as ``repr`` strings."""
    sim = ScalableSim(ScalableParams(**params), lifetime_dist)
    res = sim.run()
    scalars = {
        name: getattr(res, name)
        for name in (
            "final_population", "measured_event_rate", "mean_error_rate",
            "joins", "leaves", "level_changes", "refreshes",
            "mean_tree_depth", "max_tree_depth", "mean_root_out_degree",
        )
    }
    scalars["events_executed"] = sim.sim.events_executed
    rows = [asdict(row) for row in res.rows]
    return {
        "scalars": {k: repr(v) for k, v in scalars.items()},
        "rows": [{k: repr(v) for k, v in row.items()} for row in rows],
    }


class TestGolden:
    """The tier-1 counterpart of the benchmark ledger's fingerprint: any
    change to a draw, an event order or one float operation shows here.
    Regenerate (only for an intended behaviour change) with
    ``PYTHONPATH=src python tests/experiments/test_scalable.py``."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_result_is_bit_identical(self, case):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden_snapshot(**GOLDEN_CASES[case]) == golden[case]


class CountingRng:
    """A generator that counts the draw calls made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestJoinDrawBlocks:
    """The ``bandwidth``, ``lifetime`` and ``ids`` streams are read a block
    of joins ahead, and an event's prefix cells are computed once."""

    def test_result_does_not_depend_on_block_length(self, monkeypatch):
        committed = ScalableSim(ScalableParams(**_CHURNY)).run()
        assert committed.joins > 2 * JOIN_DRAW_BLOCK  # blocks were crossed
        for block in (1, 7):
            monkeypatch.setattr(scalable, "JOIN_DRAW_BLOCK", block)
            assert ScalableSim(ScalableParams(**_CHURNY)).run() == committed

    def test_draw_calls_and_cell_vectors_are_counted(self, monkeypatch):
        """Counted, not timed.  Before blocks: two draw calls per join on
        the bandwidth stream, one on the lifetime stream, one (or more, on
        a collision) on the ids stream, and two cell vectors per measured
        join or leave.  Cells are built by ``_flush``, one row per churn
        event: summed over flushes, an event built twice shows as a
        surplus."""
        sim = ScalableSim(ScalableParams(**dict(_CHURNY, warmup_s=0.0, duration_s=250.0)))
        seed_population = sim.seed_population

        def seed_then_count():  # seeding reads these streams too: not counted
            seed_population()
            sim._rng_bw, sim._rng_life, sim._rng_ids = (
                CountingRng(rng) for rng in (sim._rng_bw, sim._rng_life, sim._rng_ids)
            )

        monkeypatch.setattr(sim, "seed_population", seed_then_count)
        cell_rows = []
        cells = sim._cells
        monkeypatch.setattr(
            sim, "_cells", lambda values: cell_rows.append(len(values)) or cells(values)
        )
        res = sim.run()
        assert res.joins >= 3000
        most = math.ceil(res.joins / JOIN_DRAW_BLOCK) + 1
        for rng in (sim._rng_bw, sim._rng_life, sim._rng_ids):
            assert 0 < rng.calls <= most
        # No warm-up: every event is measured, so every one needs its cells.
        assert res.level_changes > 0
        assert sum(cell_rows) == res.joins + res.leaves + res.refreshes + res.level_changes


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {case: golden_snapshot(**kw) for case, kw in GOLDEN_CASES.items()},
            indent=1,
        )
        + "\n"
    )
