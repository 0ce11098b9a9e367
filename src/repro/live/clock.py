"""The realtime backend's one sanctioned time source.

This module is the single place in ``repro.live`` allowed to read the
host clock (it is on detlint DET001's allowlist; everything else in the
package must take time from a :class:`RealtimeClock`).  Keeping the
wall-clock surface to one module is what lets the rest of the backend —
runtime, node harness, swarm launcher — stay lintable under the same
determinism contract as the simulator code.

:class:`RealtimeClock` maps host time onto the kernel time base:
``now`` is *seconds since a configured epoch*, driven by the asyncio
loop's monotonic clock (so a stepped wall clock cannot make time run
backwards mid-run).  Every process of a swarm is handed the same epoch
(the launcher's wall time at launch), which makes exported span
timestamps comparable across processes and to simulated runs that start
at ``t = 0``.

Timer semantics mirror :class:`repro.sim.engine.Simulator` exactly —
idempotent ``cancel()``, ``active`` until fired, a delay that is not
``>= 0`` refused — see :mod:`repro.kernel.clock` for the contract.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.kernel.clock import Clock


def wall_epoch() -> float:
    """Current wall time (unix seconds) — the value a swarm launcher
    distributes to its node processes as the shared ``--epoch``."""
    return time.time()


class RealtimeTimer:
    """A one-shot timer over ``loop.call_later`` with
    :class:`~repro.sim.engine.EventHandle` semantics."""

    __slots__ = ("callback", "args", "cancelled", "done", "_handle")

    def __init__(self, callback: Callable[..., Any], args: tuple):
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.done = True
        self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; cancelling an
        already-fired handle is a no-op."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not (self.cancelled or self.done)


class RealtimeClock(Clock):
    """Wall-clock time and timers on an asyncio event loop.

    The running event loop drives the timers: construct the clock inside
    ``asyncio.run``.

    Parameters
    ----------
    epoch:
        Unix time that maps to ``now == 0``.  Defaults to "now", so a
        standalone clock starts near zero like a simulator; a swarm
        passes one shared epoch to every process.
    """

    __slots__ = ("_loop", "epoch", "_offset")

    def __init__(self, epoch: Optional[float] = None):
        self._loop = asyncio.get_running_loop()
        wall = time.time()
        self.epoch = float(wall if epoch is None else epoch)
        # now = loop.time() + offset; anchored so that `wall` reads as
        # `wall - epoch`, then advanced by the loop's monotonic clock.
        self._offset = (wall - self.epoch) - self._loop.time()

    @property
    def now(self) -> float:
        """Seconds since the epoch, monotone within this process."""
        return self._loop.time() + self._offset

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> RealtimeTimer:
        if not delay >= 0:  # not ``delay < 0``, which a NaN passes
            raise ValueError(f"cannot schedule after {delay} s: NaN, or negative")
        timer = RealtimeTimer(callback, args)
        timer._handle = self._loop.call_later(delay, timer._fire)
        return timer
