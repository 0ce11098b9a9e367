"""What one simulated event costs in Python calls, counted rather than
timed, so it holds on any machine.

A hop (send → queue → deliver → handler) runs in the frames of
``Transport.send``, ``Simulator.step`` and ``Transport._deliver``
(DESIGN.md §4, *A hop's cost*); a one-line helper added back on that
path shows here as a fraction of a call per event.
"""

import sys

from tests.conftest import seeded_ring


def test_a_ring_event_costs_at_most_20_python_calls():
    """Python calls (``sys.setprofile`` "call" events) per executed event
    over 120 sim-s of a warmed-up 200-node ring: 27.0 while a send went
    through the runtime, ``_route``, ``_dispatch``, ``schedule_at`` and
    ``HeapQueue.push``, a delivery through ``_same_side`` and
    ``EwmaRateMeter._decay``, and a step through ``HeapQueue.peek_time``
    and ``pop``; 17.4 with each hop in three frames."""
    net = seeded_ring(200)
    net.run(until=120.0)
    first = net.sim.events_executed
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        net.run(until=240.0)
    finally:
        sys.setprofile(None)
    events = net.sim.events_executed - first
    assert events > 2000
    per_event = calls / events
    assert per_event <= 20, f"{per_event:.1f} Python calls per event"
