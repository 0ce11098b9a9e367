"""Host time in calibrated seconds.

The sandbox's processor speed drifts: the same pure-Python loop took
between 1.8 and 12 ms within one hour, in waves of seconds to minutes
that no amount of repeating inside one 10-second run averages out (the
README's "Noise" section has the measurements).  So while a clock runs,
an interval timer interrupts the measured work every ``TICK_S`` and
times a fixed probe loop; each stretch of work between two ticks is
divided by the speed the probes around it saw.  What comes out is the
time the work would have taken at the reference speed, ``PROBE_REF_S``
per probe.  The probe is pure interpreter work that no
change to ``src/`` can alter, and all five workloads are interpreter-
bound, so calibrated times compare two commits whatever the machine was
doing while each of them ran.

Only ``signal`` and ``time`` are imported: the child starts a clock
before anything else, so that its own imports are inside ``setup_s``.
"""

from __future__ import annotations

import signal
import time
from typing import List

#: Seconds from one probe to the next.
TICK_S = 0.05
#: What one probe takes at the reference speed (the 2-core sandbox's median).
PROBE_REF_S = 0.0025


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class CalibratedClock:
    """Runs from creation to ``stop()`` (or the end of its ``with``
    block), in the main thread, one at a time: it owns ``SIGALRM``, and an
    alarm outliving it would kill an interpreter that is shutting down.
    ``seconds`` is the calibrated total, ``raw_seconds`` the measured
    one; the probes are in neither."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.stretches: List[float] = []
        self.probes: List[float] = [probe()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = time.perf_counter()

    def _tick(self, signum: int = 0, frame: object = None) -> None:
        self.stretches.append(time.perf_counter() - self._t0)
        self.probes.append(probe())
        self._t0 = time.perf_counter()

    def __enter__(self) -> "CalibratedClock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        # Ignored, not default: a straggling alarm must not kill the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.raw_seconds = sum(self.stretches)
        self.seconds = sum(
            stretch * PROBE_REF_S / ((before + after) / 2)
            for stretch, before, after in zip(self.stretches, self.probes, self.probes[1:])
        )
