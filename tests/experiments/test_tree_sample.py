"""The scalable engine's tree sample and measure tick against their
per-level loops.  The sorts one tree sample makes are a row of
``tests/test_costs.py``.

``_measure_tick`` and ``_report`` read each level's list sizes from the
prefix counters (one size per prefix holding a member of that level, times
how many members it holds); ``_sample_tree`` sums per level with one
``bincount`` each.  Every sum is of integers, so it is exact and must give
the bytes the per-slot, per-level loops below give (the loops are the
engine's earlier form, kept here as the reference).
"""

import copy

import numpy as np
import pytest

from repro.experiments.scalable import ScalableParams, ScalableSim, binomial_broadcast
from tests.test_costs import check

ACCUMULATORS = (
    "entry_seconds", "node_seconds", "bits_in", "bits_out",
    "_depth_by_level", "_depth_samples", "_sends_by_level",
)


def level_slots(sim, l):
    return np.flatnonzero(sim.alive & (np.minimum(sim.levels, sim.p.max_level) == l))


def reference_measure_tick(sim):
    """One slot mask per level, one sum per level."""
    dt = sim.p.measure_interval_s
    bits = sim.p.id_bits
    for l in range(sim.p.max_level + 1):
        slots = level_slots(sim, l)
        if slots.size == 0:
            continue
        prefixes = (
            (sim.ids[slots] >> np.uint64(bits - l)).astype(np.int64)
            if l
            else np.zeros(slots.size, dtype=np.int64)
        )
        sizes = sim._counts[l][prefixes]
        sim.entry_seconds[l] += float(sizes.sum()) * dt
        sim.node_seconds[l] += slots.size * dt
        probes = slots.size * dt / sim.p.probe_interval_s
        sim.bits_out[l] += probes * sim.p.heartbeat_bits
        sim.bits_in[l] += probes * (sim.p.heartbeat_bits + sim.p.ack_bits)


def reference_sample_tree(sim):
    """The tree sample's calibration sums, one level at a time; the tree
    itself comes from the engine's ``binomial_broadcast``."""
    bits = sim.p.id_bits
    values = list(sim._slot_of.keys())
    subject = np.uint64(values[int(sim._rng_misc.integers(0, len(values)))])
    lv = np.minimum(sim.levels, sim.p.max_level).astype(np.uint64)
    mask = sim.alive & (((sim.ids ^ subject) >> (np.uint64(bits) - lv)) == 0)
    idx = np.flatnonzero(mask)
    ids = sim.ids[idx]
    levels = sim.levels[idx].astype(np.int32)
    root_pos = int(np.lexsort((ids, levels))[0])
    depths, senders = binomial_broadcast(ids, levels, root_pos, bits)
    reached = depths >= 0
    for l in range(sim.p.max_level + 1):
        sel = reached & (np.minimum(levels, sim.p.max_level) == l)
        if sel.any():
            sim._depth_by_level[l] += float(depths[sel].mean())
            sim._depth_samples[l] += 1
        sim._sends_by_level[l] += float(senders[np.minimum(levels, sim.p.max_level) == l].sum())
    return root_pos, int(senders[root_pos]), float(depths[reached].mean())


@pytest.fixture(scope="module")
def measured_sim():
    """A short seeded run: every accumulator has been written many times."""
    sim = ScalableSim(ScalableParams(n_target=3_000, warmup_s=150.0, duration_s=300.0, seed=9))
    sim.run()
    return sim


def assert_same_bytes(a, b):
    for name in ACCUMULATORS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_measure_tick_is_the_per_level_loop(measured_sim):
    sim = copy.deepcopy(measured_sim)
    twin = copy.deepcopy(measured_sim)
    for _ in range(3):
        sim._measure_tick()
        reference_measure_tick(twin)
    assert_same_bytes(sim, twin)


def test_sample_tree_is_the_per_level_loop(measured_sim):
    sim = copy.deepcopy(measured_sim)
    twin = copy.deepcopy(measured_sim)
    for _ in range(5):
        sim._sample_tree()
        root_pos, out_degree, mean_depth = reference_sample_tree(twin)
        assert sim._root_out_degrees[-1] == out_degree
        assert sim._tree_depths_all[-1] == mean_depth
    assert_same_bytes(sim, twin)
    # The subject draws stayed in step.
    assert sim._rng_misc.integers(0, 1 << 30) == twin._rng_misc.integers(0, 1 << 30)


def test_report_rows_are_the_per_level_slot_sizes(measured_sim):
    """``_report``'s per-level list sizes are the per-level slot masks'."""
    rows = {r.level: r for r in measured_sim._report().rows}
    for l in range(measured_sim.p.max_level + 1):
        slots = level_slots(measured_sim, l)
        if slots.size == 0:
            continue
        prefixes = (measured_sim.ids[slots] >> np.uint64(measured_sim.p.id_bits - l)).astype(np.int64)
        sizes = measured_sim._counts[l][prefixes].astype(float)
        assert rows[l].population == slots.size
        assert (rows[l].mean_list_size, rows[l].min_list_size, rows[l].max_list_size) == (
            float(sizes.mean()), float(sizes.min()), float(sizes.max())
        )


@pytest.mark.costs
def test_one_sample_sorts_once():
    check("tree_sample", 4000)
