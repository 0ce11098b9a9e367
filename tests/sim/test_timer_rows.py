"""``Simulator.timer_rows`` against the same timers scheduled one by one:
counted and compared, never timed.

A row is *the scalar schedule* (DESIGN.md §4, Schedule discipline): every
test here drives two simulators with one script — ``scalar`` makes one
``schedule`` call per timer, ``rowed`` pushes a row onto one of two
:class:`~repro.sim.engine.TimerRows` — and requires the same ``(time, seq,
callback, args)`` execution trace, stop points and event counts.  Rows are
pushed in random time order, before the run and from inside callbacks, so
a new row is often earlier than the one the handle is armed at.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator

#: Delays onto few distinct instants, so exact ties are the common case:
#: among rows, across the two row heaps and against scalar ticks.
DELAYS = [0.5 * step for step in range(12)]


class Script:
    """One simulator plus the trace of what it executed.  ``leave`` and
    ``refresh`` stand for the two follow-ups a scalable run pushes; what a
    timer does beyond being recorded is looked up by its label, so both
    simulators act alike without sharing state."""

    def __init__(self, actions, rowed):
        self.sim = Simulator(start_time=3.0)
        self.rowed = rowed
        self.leaves = self.sim.timer_rows(self.leave)
        self.refreshes = self.sim.timer_rows(self.refresh, 7.5, "shared")
        self.trace = []
        self.seq_of = {}  # label -> the sequence number its timer holds
        self.ticks = {}  # label -> handle of a scalar tick
        self.actions = actions
        self.spawned = 0

    def leave(self, label):
        self._ran("leave", label)

    def refresh(self, label, period, tag):
        self._ran("refresh", label, period, tag)

    def tick(self, label):
        self._ran("tick", label)

    def _ran(self, name, label, *shared):
        self.trace.append((self.sim.now, self.seq_of[label], name, label, *shared))
        kind, arg = self.actions.get(label, (None, None))
        if kind == "spawn":  # a row pushed while rows are firing
            which, delay = arg
            self.push(which, delay, f"{label}/child{self.spawned}")
            self.spawned += 1
        elif kind == "tick":  # a scalar timer among the rows
            self.schedule_tick(arg, f"{label}/tick{self.spawned}")
            self.spawned += 1
        elif kind == "cancel":
            handle = self.ticks.get(arg)
            if handle is not None:
                handle.cancel()
        elif kind == "raise":
            raise KeyError(label)

    def push(self, which, delay, label):
        self.seq_of[label] = self.sim.reserve(0)  # the number the timer takes
        if not self.rowed:
            if which == "leave":
                self.sim.schedule(delay, self.leave, label)
            else:
                self.sim.schedule(delay, self.refresh, label, 7.5, "shared")
        elif which == "leave":
            self.leaves.push(delay, label)
        else:
            self.refreshes.push(delay, label)

    def schedule_tick(self, delay, label):
        handle = self.sim.schedule(delay, self.tick, label)
        self.seq_of[label] = handle.seq
        self.ticks[label] = handle

    def drain(self, until, max_events):
        """Run in the pieces a caller might: to a time between rows, for a
        few events, then to the end through exceptions."""
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


@pytest.mark.parametrize("seed", range(40))
def test_rows_are_the_scalar_schedule(seed):
    rng = random.Random(seed)
    k = rng.randrange(1, 60)
    timers = [
        (rng.choice(("leave", "refresh", "tick")), rng.choice(DELAYS), f"e{index}")
        for index in range(k)
    ]
    ticks = [label for which, _delay, label in timers if which == "tick"]
    actions = {}
    for _which, _delay, label in timers:
        roll = rng.random()
        if roll < 0.20:  # delay 0.0: a same-instant row mid-run
            actions[label] = ("spawn", (rng.choice(("leave", "refresh")), rng.choice(DELAYS)))
        elif roll < 0.30:
            actions[label] = ("tick", rng.choice(DELAYS))
        elif roll < 0.40 and ticks:
            actions[label] = ("cancel", rng.choice(ticks))
        elif roll < 0.44:
            actions[label] = ("raise", None)
    until = 3.0 + rng.choice(DELAYS) + rng.choice((0.0, 0.25))
    max_events = rng.randrange(1, 8)

    results = []
    for rowed in (False, True):
        script = Script(actions, rowed)
        for which, delay, label in timers:
            if which == "tick":
                script.schedule_tick(delay, label)
            else:
                script.push(which, delay, label)
        marks = script.drain(until, max_events)
        results.append((script.trace, marks, script.sim.now, script.sim.events_executed))
    scalar, rowed = results
    assert rowed == scalar
    assert len(scalar[0]) >= k  # every timer ran (spawned ones on top)


def rows_of(sim, delays, seen):
    rows = sim.timer_rows(seen.append)
    for value, delay in enumerate(delays):
        rows.push(delay, value)


class TestOnePendingEntry:
    def test_rows_in_time_order_are_one_entry(self):
        sim = Simulator()
        seen = []
        rows_of(sim, [1.0, 1.0, 2.0, 5.0], seen)
        assert len(sim) == 1
        sim.run(until=1.5)  # stops between rows ...
        assert (seen, sim.now, len(sim), sim.peek()) == ([0, 1], 1.5, 1, 2.0)
        sim.run(max_events=1)  # ... and resumes where it stopped
        assert (seen, sim.now, sim.events_executed) == ([0, 1, 2], 2.0, 3)
        sim.run()
        assert (seen, sim.now, len(sim), sim.events_executed) == ([0, 1, 2, 3], 5.0, 0, 4)

    def test_an_earlier_row_moves_the_handle(self):
        """The handle leaves a heap pair behind at the row it was armed
        at; the pair is skipped when it surfaces, and only one entry of the
        table is ever the rows'."""
        sim = Simulator()
        seen = []
        rows_of(sim, [5.0, 3.0, 3.0, 1.0], seen)
        assert len(sim._live) == 1 and sim.peek() == 1.0
        sim.schedule(3.0, seen.append, "tick")  # after both rows at 3.0
        sim.run()
        assert seen == [3, 1, 2, "tick", 0]
        assert sim.events_executed == 5 and sim.peek() is None

    def test_rows_tie_with_ticks_by_sequence_number(self):
        """The seeded refresh instant, ``2 x mean lifetime``, is also a
        measure and a relevel tick's: a row queued between two ticks of one
        instant runs between them."""
        sim = Simulator()
        seen = []
        rows = sim.timer_rows(seen.append)
        sim.schedule(60.0, seen.append, "measure")
        rows.push(60.0, "refresh")
        sim.schedule(60.0, seen.append, "relevel")
        rows.push(60.0, "refresh again")
        sim.run()
        assert seen == ["measure", "refresh", "relevel", "refresh again"]

    def test_a_row_pushed_by_its_own_callback(self):
        sim = Simulator()
        seen = []

        def again(value):
            seen.append((sim.now, value))
            if value < 3:
                rows.push(0.0 if value == 1 else 2.0, value + 1)

        rows = sim.timer_rows(again)
        rows.push(1.0, 0)
        sim.run()
        assert seen == [(1.0, 0), (3.0, 1), (3.0, 2), (5.0, 3)]
        assert sim.events_executed == 4 and len(sim) == 0

    def test_the_rest_of_the_rows_survive_a_callback_that_raises(self):
        sim = Simulator()
        seen = []

        def picky(value):
            if value == 1:
                raise ValueError(value)
            seen.append(value)

        rows = sim.timer_rows(picky)
        for value, delay in enumerate([1.0, 2.0, 3.0]):
            rows.push(delay, value)
        with pytest.raises(ValueError):
            sim.run()
        assert (seen, sim.now, sim.events_executed, sim.peek()) == ([0], 2.0, 2, 3.0)
        sim.run()
        assert seen == [0, 2]

    def test_a_push_takes_what_schedule_would(self):
        sim = Simulator()
        rows = sim.timer_rows(print)
        assert sim.schedule(1.0, print).seq == 0
        rows.push(1.0, "row")
        assert sim.schedule(1.0, print).seq == 2


class TestRefusedByName:
    @pytest.mark.parametrize("delay, message", [
        (-1.0, "negative"), (float("nan"), "NaN"), (-float("inf"), "negative"),
    ])
    def test_bad_delay(self, delay, message):
        sim = Simulator(start_time=10.0)
        rows = sim.timer_rows(print)
        with pytest.raises(SimulationError, match=message):
            rows.push(delay, "a")
        assert (len(sim), sim.reserve(0)) == (0, 0)  # nothing queued, no number taken
