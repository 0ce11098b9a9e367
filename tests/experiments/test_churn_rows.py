"""The scalable engine's churn rows against the per-event chain they replace.

A join, leave, refresh or level change queues one row; ``_flush`` applies a
block of rows with one sort and charges them with axis-0 reduces.  That is
only the engine's earlier per-event form if (1) every row sees the level
counts of its own moment, (2) each accumulator gets the same addends in the
same order, and (3) that order survives NumPy's reduce.  The per-event
chain (``_delays`` -> charge -> ``_charge_traffic``, and the counter
writes of ``_add_node`` / ``_remove_node`` / the re-level loop) is kept here
as the reference; everything is compared by bytes.
"""

import math

import numpy as np
import pytest

from repro.experiments import scalable
from repro.experiments.scalable import (
    _JOIN,
    _LEAVE,
    _REFRESH,
    _RELEVEL,
    _ROW,
    ScalableParams,
    ScalableSim,
)
from tests.test_costs import check

TABLES = ("_counts_flat", "_level_counts_flat")
ACCUMULATORS = (
    "stale_seconds", "absent_seconds", "entry_seconds", "bits_in", "bits_out", "node_seconds",
)

#: Fifty times the common case's churn, capped at seven levels: level
#: changes, refreshes and every kind of row in most blocks.
FAST_CHURN = dict(
    n_target=2000, warmup_s=60.0, duration_s=600.0, seed=7, lifetime_rate=0.02, max_level=6
)
#: The same churn at the default 19 levels.
DEEP_CHURN = dict(n_target=2000, warmup_s=60.0, duration_s=120.0, seed=3, lifetime_rate=0.02)


def populations(sim, rows):
    """N as each row's event saw it, walking back from the population at the
    flush: a join counted itself, a leave still counted itself."""
    seen, after = [], sim.population
    for kind in reversed(rows[1::_ROW]):
        if kind == _JOIN:
            seen.append(after)
            after -= 1
        elif kind == _LEAVE:
            after += 1
            seen.append(after)
        else:
            seen.append(after)
    return seen[::-1]


def reference_apply(sim, rows, state):
    """The per-event chain, one row at a time, on copies of the tables and
    accumulators ``state`` holds."""
    p = sim.p
    counts, level_counts = state["_counts_flat"], state["_level_counts_flat"]
    stale, absent = state["stale_seconds"], state["absent_seconds"]
    bits_in, bits_out = state["bits_in"], state["bits_out"]
    for (value, kind, old, new, unsampled), population in zip(
        zip(*[iter(rows)] * _ROW), populations(sim, rows)
    ):
        cells = (np.uint64(value) >> sim._cell_shift).astype(np.int64) + sim._cell_base
        if kind == _JOIN:
            counts[cells] += 1
            level_counts[cells[new]] += 1
        elif kind == _RELEVEL:
            level_counts[cells[old]] -= 1
            level_counts[cells[new]] += 1
        if sim._measuring:
            audience = level_counts[cells].astype(np.int64)
            if kind in (_JOIN, _LEAVE):
                detection = (
                    p.probe_interval_s / 2.0 + p.probe_timeout_s if kind == _LEAVE else 0.0
                )
                unsampled_depth = max(1.0, math.log2(max(population, 2)) * 0.5)
                assert unsampled == unsampled_depth * sim._hop_delay
                tree = np.where(
                    sim._depth_sampled, sim._depth_delay, unsampled_depth * sim._hop_delay
                )
                charge = (detection + sim._hop_delay + tree) * audience
                if kind == _LEAVE:
                    stale += charge
                else:
                    absent += charge
            bits_in += audience * p.event_bits
            bits_out += audience * p.ack_bits
            if sim._send_bits is not None:
                bits_out += sim._send_bits
        if kind == _LEAVE:
            counts[cells] -= 1
            level_counts[cells[old]] -= 1


@pytest.mark.parametrize("params", [FAST_CHURN, DEEP_CHURN], ids=["max_level=6", "max_level=18"])
def test_flush_is_the_per_event_chain(params):
    """Every flush of a seeded run, replayed row by row through the
    reference, leaves the same bytes in both tables and all four charged
    accumulators."""
    sim = ScalableSim(ScalableParams(**params))
    flush = sim._flush
    kinds, measured = set(), [0]

    def checked_flush():
        rows = list(sim._rows)
        state = {name: getattr(sim, name).copy() for name in TABLES + ACCUMULATORS}
        reference_apply(sim, rows, state)
        flush()
        for name in TABLES + ACCUMULATORS:
            assert getattr(sim, name).tobytes() == state[name].tobytes(), name
        kinds.update(rows[1::_ROW])
        measured[0] += sim._measuring * len(rows) // _ROW

    sim._flush = checked_flush
    res = sim.run()
    assert kinds == {_JOIN, _LEAVE, _RELEVEL} | ({_REFRESH} if res.refreshes else set())
    assert measured[0] > 1000 and res.level_changes > 0
    if params is FAST_CHURN:
        assert res.refreshes > 0


@pytest.mark.parametrize("params", [FAST_CHURN, DEEP_CHURN], ids=["max_level=6", "max_level=18"])
def test_result_does_not_depend_on_churn_block(params, monkeypatch):
    """One row per flush, seven, or ``CHURN_BLOCK``: the same result and the
    same bytes in every table and accumulator."""

    def run():
        sim = ScalableSim(ScalableParams(**params))
        res = sim.run()
        return res, [getattr(sim, name).tobytes() for name in TABLES + ACCUMULATORS]

    committed = run()
    # Ticks flush every 30 sim-s, so at the default block no flush here is
    # a full block; at seven, nearly all are.
    assert committed[0].joins + committed[0].leaves > 4000
    for block in (1, 7):
        monkeypatch.setattr(scalable, "CHURN_BLOCK", block)
        assert run() == committed


def test_axis0_reduce_is_sequential():
    """What ``_flush`` rests on: NumPy's axis-0 reduce over a C-contiguous
    block adds its rows one after another, as ``+=`` per row would — and a
    column sum (pairwise) then one add does not give the same bytes."""
    rng = np.random.default_rng(41)
    rows = rng.random((100_000, 19)) * np.exp2(rng.integers(-20, 40, size=(100_000, 19)))
    acc = rng.random(19) * 1e9
    sequential = acc.copy()
    for row in rows:
        sequential += row
    reduced = np.add.reduce(np.vstack([acc, rows]), axis=0)
    assert reduced.tobytes() == sequential.tobytes()
    assert (acc + rows.sum(axis=0)).tobytes() != sequential.tobytes()


@pytest.mark.costs
def test_a_churn_event_costs_at_most_12_python_calls():
    check("scalable_churn", 5000, "calls/event")
