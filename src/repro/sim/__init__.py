"""Discrete-event simulation substrate (the ONSP [17] substitute).

The paper ran its experiments on ONSP, a parallel discrete-event overlay
simulation platform written in C++/MPI.  This package provides the same
execution model in pure Python:

* :class:`~repro.sim.engine.Simulator` — a sequential discrete-event core
  with a binary-heap scheduler and cancellable callback events.
* :class:`~repro.sim.parallel.ParallelSimulator` — a conservative
  (lookahead-synchronized) logical-process engine mirroring ONSP's
  parallel-DES design, run deterministically in rank order on a single
  host: a determinism and LP-isolation oracle, not a speed-up.
* :mod:`~repro.sim.rng` — named, reproducible random streams derived from a
  single master seed (one stream per model component, so adding a component
  never perturbs another component's draws).
* :mod:`~repro.sim.queues` — the heap pending-event set every simulator
  uses (and the calendar queue the benchmark ledger still times against it).

Observation lives in :mod:`repro.obs` (spans, metrics, telemetry frames),
not here; no engine reads the wall clock.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.parallel import LogicalProcess, ParallelSimulator
from repro.sim.queues import CalendarQueue, HeapQueue
from repro.sim.rng import RandomStreams

__all__ = [
    "CalendarQueue",
    "EventHandle",
    "HeapQueue",
    "LogicalProcess",
    "ParallelSimulator",
    "RandomStreams",
    "SimulationError",
    "Simulator",
]
