"""PeriodicTask (Simulator.every) tests."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestPeriodicTask:
    def test_fires_on_interval(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run(until=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_start_delay(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now), start_delay=1.0)
        sim.run(until=25.0)
        assert times == [1.0, 11.0, 21.0]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        task = sim.every(5.0, lambda: None)
        sim.run(until=12.0)
        assert task.fired == 2
        task.cancel()
        assert not task.active
        sim.run(until=50.0)
        assert task.fired == 2

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        task = None

        def cb():
            if task.fired >= 3:
                task.cancel()

        task = sim.every(1.0, cb)
        sim.run(until=100.0)
        assert task.fired == 3

    def test_args_passed(self):
        sim = Simulator()
        out = []
        sim.every(1.0, out.append, "tick")
        sim.run(until=2.5)
        assert out == ["tick", "tick"]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestJitteredPeriod:
    def test_zero_jitter_fires_on_exact_grid(self):
        sim = Simulator()
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run(until=50.0)
        assert times == [pytest.approx(10.0 * k) for k in range(1, 6)]
