"""Conservative parallel-LP engine tests.

The key correctness property of conservative parallel DES: partitioned
execution produces results identical to an equivalent sequential order.
"""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.parallel import ParallelSimulator


def _ping_pong(psim: ParallelSimulator, rounds: int, latency: float):
    """Two LPs bounce a counter; returns the trace list."""
    trace = []

    def receive(rank, value):
        trace.append((psim.lps[rank].now, rank, value))
        if value < rounds:
            dest = 1 - rank
            psim.lps[rank].send(dest, latency, receive, dest, value + 1)

    psim.lps[0].schedule_local(0.0, receive, 0, 0)
    return trace


class TestParallelSimulator:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ParallelSimulator(0, 1.0)
        with pytest.raises(ValueError):
            ParallelSimulator(2, 0.0)

    def test_lookahead_violation_rejected(self):
        psim = ParallelSimulator(2, lookahead=1.0)
        with pytest.raises(SimulationError):
            psim.lps[0].send(1, 0.5, lambda: None)

    def test_local_send_ignores_lookahead(self):
        psim = ParallelSimulator(2, lookahead=1.0)
        ran = []
        psim.lps[0].send(0, 0.1, ran.append, 1)
        psim.run(until=1.0)
        assert ran == [1]

    def test_ping_pong_delivery_times(self):
        psim = ParallelSimulator(2, lookahead=1.0)
        trace = _ping_pong(psim, rounds=4, latency=1.0)
        psim.run(until=10.0)
        times = [t for t, _, _ in trace]
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
        ranks = [r for _, r, _ in trace]
        assert ranks == [0, 1, 0, 1, 0]

    def test_replay_is_deterministic(self):
        results = []
        for _ in range(2):
            psim = ParallelSimulator(4, lookahead=0.5)
            trace = []

            def make_handler(psim=psim, trace=trace):
                def receive(rank, value):
                    trace.append((round(psim.lps[rank].now, 6), rank, value))
                    if value < 12:
                        dest = (rank + 1) % psim.nranks
                        psim.lps[rank].send(dest, 0.5, receive, dest, value + 1)

                return receive

            handler = make_handler()
            psim.lps[0].schedule_local(0.0, handler, 0, 0)
            psim.run(until=20.0)
            results.append(trace)
        assert results[0] and results[0] == results[1]

    def test_message_counters(self):
        psim = ParallelSimulator(2, lookahead=1.0)
        _ping_pong(psim, rounds=3, latency=1.0)
        psim.run(until=10.0)
        totals = psim.total_messages()
        assert totals["sent"] == totals["received"] == 3

    def test_lp_for_partitioning(self):
        psim = ParallelSimulator(4, lookahead=1.0)
        assert psim.lp_for(0).rank == 0
        assert psim.lp_for(5).rank == 1
        assert psim.lp_for(7).rank == 3

    def test_run_backwards_rejected(self):
        psim = ParallelSimulator(1, lookahead=1.0)
        psim.run(until=5.0)
        with pytest.raises(SimulationError):
            psim.run(until=1.0)

    def test_epoch_count(self):
        psim = ParallelSimulator(2, lookahead=1.0)
        psim.run(until=10.0)
        assert psim.epochs_run == 10

    def test_cross_lp_message_not_earlier_than_epoch_boundary(self):
        """A message sent mid-epoch is delivered no earlier than its
        nominal latency allows (conservative safety)."""
        psim = ParallelSimulator(2, lookahead=2.0)
        deliveries = []

        def on_recv():
            deliveries.append(psim.lps[1].now)

        def sender():
            psim.lps[0].send(1, 2.0, on_recv)

        psim.lps[0].schedule_local(0.5, sender)
        psim.run(until=6.0)
        assert len(deliveries) == 1
        assert deliveries[0] >= 2.5
