"""``Simulator.schedule_batch`` against the same entries scheduled one by
one: counted and compared, never timed.

A batch is *the scalar schedule* (DESIGN.md §4, Schedule discipline): every
test here drives two simulators with one script — ``scalar`` makes one
``schedule_at`` call per entry, ``batched`` reserves the block and queues
the sorted arrays — and requires the same ``(time, seq, callback, args)``
execution trace, stop points and event counts.
"""

import random

import numpy as np
import pytest

from repro.sim.engine import SimulationError, Simulator
from tests.test_costs import check

#: Few distinct instants, so exact ties are the common case: inside a
#: batch, across batches and against scalar events.
GRID = [4.0 + 0.5 * step for step in range(12)]


class Script:
    """One simulator plus the trace of what it executed.  ``leave`` and
    ``refresh`` stand for the two callbacks a seeded population queues;
    what an entry does beyond being recorded is looked up by its label,
    so both simulators act alike without sharing state."""

    def __init__(self, actions):
        self.sim = Simulator(start_time=3.0)
        self.trace = []
        self.seq_of = {}  # label -> the sequence number its entry holds
        self.handles = {}  # label -> handle, scalar entries only
        self.actions = actions
        self.spawned = 0

    def leave(self, label):
        self._ran("leave", label)

    def refresh(self, label, period, tag):
        self._ran("refresh", label, period, tag)

    def _ran(self, name, label, *shared):
        self.trace.append((self.sim.now, self.seq_of[label], name, label, *shared))
        kind, arg = self.actions.get(label, (None, None))
        if kind == "spawn":  # a scalar schedule made while a batch is firing
            self.scalar(self.sim.now + arg, f"{label}/child{self.spawned}")
            self.spawned += 1
        elif kind == "cancel":
            handle = self.handles.get(arg)
            if handle is not None:
                handle.cancel()
        elif kind == "raise":
            raise KeyError(label)

    def scalar(self, time, label):
        handle = self.sim.schedule_at(time, self.leave, label)
        self.seq_of[label] = handle.seq
        self.handles[label] = handle

    def drain(self, until, max_events):
        """Run in the pieces a caller might: to a time inside the batches,
        for a few events, then to the end through exceptions."""
        marks = []

        def piece(**how):
            try:
                self.sim.run(**how)
            except KeyError as exc:
                marks.append(("raised", exc.args[0]))
            marks.append((self.sim.now, self.sim.events_executed, len(self.trace)))

        piece(until=until)
        piece(max_events=max_events)
        while self.sim.peek() is not None:
            piece()
        return marks


def entries_for(rng, k):
    """``k`` entries in scheduling order: ``(time, which callback, label)``."""
    return [
        (rng.choice(GRID), rng.choice(("leave", "refresh")), f"e{index}")
        for index in range(k)
    ]


def queue_one_by_one(script, entries):
    for time, which, label in entries:
        if which == "leave":
            handle = script.sim.schedule_at(time, script.leave, label)
        else:
            handle = script.sim.schedule_at(time, script.refresh, label, 7.5, "shared")
        script.seq_of[label] = handle.seq


def queue_as_batches(script, entries):
    first = script.sim.reserve(len(entries))
    times = np.array([time for time, _which, _label in entries])
    seqs = first + np.arange(len(entries))
    script.seq_of.update((label, int(seq)) for (_t, _w, label), seq in zip(entries, seqs))
    for which, callback, shared in (
        ("leave", script.leave, ()), ("refresh", script.refresh, (7.5, "shared")),
    ):
        mine = np.array([w == which for _t, w, _l in entries], dtype=bool)
        order = np.lexsort((seqs[mine], times[mine]))
        labels = [entries[i][2] for i in np.flatnonzero(mine)[order]]
        script.sim.schedule_batch(
            times[mine][order], seqs[mine][order], callback, labels, *shared
        )


@pytest.mark.parametrize("seed", range(40))
def test_batch_is_the_scalar_schedule(seed):
    rng = random.Random(seed)
    k = rng.randrange(1, 60)
    entries = entries_for(rng, k)
    before = [(rng.choice(GRID), f"before{i}") for i in range(rng.randrange(6))]
    after = [(rng.choice(GRID), f"after{i}") for i in range(rng.randrange(6))]
    scalars = [label for _t, label in before + after]
    actions = {}
    for _time, _which, label in entries:
        roll = rng.random()
        if roll < 0.15:  # delay 0.0: a same-instant schedule mid-batch
            actions[label] = ("spawn", rng.choice((0.0, 0.5, 1.25)))
        elif roll < 0.30 and scalars:
            actions[label] = ("cancel", rng.choice(scalars))
        elif roll < 0.34:
            actions[label] = ("raise", None)
    for label in scalars:
        if rng.random() < 0.2:
            actions[label] = ("cancel", rng.choice(scalars))
    cancelled_up_front = [label for label in scalars if rng.random() < 0.15]
    until, max_events = rng.choice(GRID) + rng.choice((0.0, 0.25)), rng.randrange(1, 8)

    results = []
    for queue in (queue_one_by_one, queue_as_batches):
        script = Script(actions)
        for time, label in before:
            script.scalar(time, label)
        queue(script, entries)
        for time, label in after:
            script.scalar(time, label)
        for label in cancelled_up_front:  # a cancel between queueing and running
            script.handles[label].cancel()
        marks = script.drain(until, max_events)
        results.append((script.trace, marks, script.sim.now, script.sim.events_executed))
    scalar, batched = results
    assert batched == scalar
    assert len(scalar[0]) >= k  # every entry ran (spawned children on top)


def batch_of(sim, times, callback=print, values=None):
    first = sim.reserve(len(times))
    values = list(range(len(times))) if values is None else values
    sim.schedule_batch(times, first + np.arange(len(times)), callback, values)


class TestOnePendingEntry:
    def test_a_batch_is_one_entry_until_its_last_timer_fires(self):
        sim = Simulator()
        seen = []
        batch_of(sim, [1.0, 1.0, 2.0, 5.0], seen.append)
        assert len(sim) == 1
        sim.run(until=1.5)  # stops inside the batch ...
        assert (seen, sim.now, len(sim), sim.peek()) == ([0, 1], 1.5, 1, 2.0)
        sim.run(max_events=1)  # ... and resumes where it stopped
        assert (seen, sim.now, sim.events_executed) == ([0, 1, 2], 2.0, 3)
        sim.run()
        assert (seen, sim.now, len(sim), sim.events_executed) == ([0, 1, 2, 3], 5.0, 0, 4)

    def test_the_rest_of_the_batch_survives_a_callback_that_raises(self):
        sim = Simulator()
        seen = []

        def picky(value):
            if value == 1:
                raise ValueError(value)
            seen.append(value)

        batch_of(sim, [1.0, 2.0, 3.0], picky)
        with pytest.raises(ValueError):
            sim.run()
        assert (seen, sim.now, sim.events_executed, sim.peek()) == ([0], 2.0, 2, 3.0)
        sim.run()
        assert seen == [0, 2]

    @pytest.mark.costs
    def test_queueing_allocates_nothing_per_entry(self):
        check("timer_batch", 10_000)

    def test_an_empty_batch_queues_nothing(self):
        sim = Simulator()
        sim.schedule_batch([], [], print, [])
        assert len(sim) == 0 and sim.reserve(0) == 0

    def test_reserve_hands_out_what_schedule_would(self):
        sim = Simulator()
        assert sim.schedule(1.0, print).seq == 0
        assert sim.reserve(3) == 1
        assert sim.schedule(1.0, print).seq == 4


class TestRefusedByName:
    @pytest.mark.parametrize(
        "times, seqs, message",
        [
            ([2.0, 1.0, 3.0], [0, 1, 2], "sorted"),
            ([1.0, 1.0, 3.0], [1, 0, 2], "sorted"),  # a tie out of seq order
            ([1.0, 1.0, 3.0], [1, 1, 2], "sorted"),  # one number twice
            ([-1.0, 1.0, 3.0], [0, 1, 2], "past"),
            ([1.0, float("nan"), 3.0], [0, 1, 2], "NaN"),
            ([float("nan"), 1.0, 3.0], [0, 1, 2], "NaN"),
            ([1.0, 2.0, 3.0], [0, 1, 3], "reserve"),  # 3 was never handed out
            ([1.0, 2.0, 3.0], [-1, 1, 2], "reserve"),
            ([1.0, 2.0], [0, 1, 2], "per entry"),
            ([[1.0, 2.0, 3.0]], [[0, 1, 2]], "per entry"),
        ],
    )
    def test_bad_batch(self, times, seqs, message):
        sim = Simulator()
        assert sim.reserve(3) == 0
        with pytest.raises(SimulationError, match=message):
            sim.schedule_batch(times, seqs, print, ["a", "b", "c"])
        assert len(sim) == 0  # refused whole: nothing was queued

    def test_batch_into_the_past_of_a_running_clock(self):
        sim = Simulator(start_time=10.0)
        sim.reserve(2)
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_batch([9.0, 11.0], [0, 1], print, ["a", "b"])

    def test_negative_reservation(self):
        with pytest.raises(SimulationError, match="reserve"):
            Simulator().reserve(-1)


class TestNaN:
    """``nan < 0`` and ``nan < now`` are both false: a NaN used to reach
    the heap, where it compares false with everything and breaks the heap
    order for the entries around it."""

    def test_schedule_refuses_nan(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule(float("nan"), print)
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule_at(float("nan"), print)
        assert len(sim) == 0

    def test_the_clock_cannot_be_made_to_run_backwards(self):
        sim = Simulator()
        order = []
        for tag, delay in (("a", 1.0), ("n", float("nan")), ("b", 0.5), ("c", 2.0), ("d", 0.1)):
            try:
                sim.schedule(delay, lambda tag=tag: order.append((tag, sim.now)))
            except SimulationError:
                assert tag == "n"
        sim.run()
        assert order == [("d", 0.1), ("b", 0.5), ("a", 1.0), ("c", 2.0)]

    def test_run_until_nan_is_refused_not_endless(self):
        sim = Simulator()
        sim.every(1.0, lambda: None)  # re-arms itself: only ``until`` ends the run
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert sim.events_executed == 0
        assert sim.run(until=3.0) == 3.0  # the refusal left it runnable

    def test_infinity_is_a_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(float("inf"), seen.append, "never")
        assert sim.run(until=1e12) == 1e12 and seen == []
