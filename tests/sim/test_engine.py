"""Unit tests for the discrete-event core."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_start_time(self):
        assert Simulator().now == 0.0
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, ran.append, 1)
        handle.cancel()
        sim.run()
        assert ran == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.active

    def test_cancel_after_execution_is_noop(self):
        sim = Simulator()
        ran = []
        handle = sim.schedule(1.0, ran.append, 1)
        sim.run()
        handle.cancel()
        assert ran == [1]
        assert handle.done

    def test_active_property_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.active
        sim.run()
        assert not handle.active


class TestRunBounds:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert len(sim) == 1  # event still pending

    def test_run_until_executes_events_at_until(self):
        sim = Simulator()
        ran = []
        sim.schedule(4.0, ran.append, 1)
        sim.run(until=4.0)
        assert ran == [1]

    def test_run_resumes_after_until(self):
        sim = Simulator()
        ran = []
        sim.schedule(10.0, ran.append, 1)
        sim.run(until=5.0)
        sim.run(until=15.0)
        assert ran == [1]
        assert sim.now == 15.0

    def test_max_events(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(float(i + 1), ran.append, i)
        sim.run(max_events=3)
        assert ran == [0, 1, 2]

    def test_empty_run_with_until_advances_clock(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_cancelled_head_does_not_leak_past_until(self):
        """Regression: with a cancelled entry at the queue head inside the
        window and a live event beyond ``until``, run(until) must NOT
        execute the live event — for every shape of dead head peek() has
        to discard: several in a row, and one tied at equal time between
        a live event scheduled earlier and one scheduled later."""
        sim = Simulator()
        ran = []
        dead = [sim.schedule(t, ran.append, "dead") for t in (3.0, 5.0, 5.0)]
        sim.schedule(50.0, ran.append, "far-a")
        dead.append(sim.schedule(50.0, ran.append, "dead"))
        sim.schedule(50.0, ran.append, "far-b")
        for handle in dead:
            handle.cancel()
        sim.run(until=10.0)
        assert ran == []
        assert sim.now == 10.0
        # Repeated peeks read the head in place: equal-time FIFO ties
        # still run in schedule order afterwards.
        assert [sim.peek() for _ in range(3)] == [50.0] * 3
        assert len(sim) == 3
        sim.run(until=60.0)
        assert ran == ["far-a", "far-b"]
        # An all-cancelled queue peeks as empty and is left empty.
        for handle in [sim.schedule(1.0, ran.append, "dead") for _ in range(3)]:
            handle.cancel()
        assert len(sim) == 3
        assert sim.peek() is None
        assert len(sim) == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()
