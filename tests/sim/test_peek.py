"""Simulator.peek() semantics (live-head inspection with lazy deletion)."""

from repro.sim.engine import Simulator


class TestPeek:
    def test_peek_empty(self):
        assert Simulator().peek() is None

    def test_peek_returns_next_live_time(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek() == 1.0

    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        dead = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        dead.cancel()
        assert sim.peek() == 2.0

    def test_peek_all_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
        for h in handles:
            h.cancel()
        assert sim.peek() is None

    def test_peek_preserves_fifo_ties(self):
        """peek() discards the dead head and reads the live one in place;
        same-time events must still run in schedule order afterwards."""
        sim = Simulator()
        order = []
        dead = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, order.append, "first")
        sim.schedule(2.0, order.append, "second")
        dead.cancel()
        assert sim.peek() == 2.0
        sim.run()
        assert order == ["first", "second"]

    def test_peek_does_not_execute(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, ran.append, 1)
        sim.peek()
        assert ran == []
        assert sim.events_executed == 0
