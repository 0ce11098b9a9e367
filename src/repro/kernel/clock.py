"""The kernel clock: time and timers, independent of the execution engine.

Every timer the protocol arms goes through this interface, which pins
down the semantics all backends must share (they are the semantics of
:class:`repro.sim.engine.Simulator`, the original implementation):

* :meth:`Clock.schedule` returns a handle with ``cancel()``, ``active``
  and ``rearm(delay)``; cancel is idempotent and cancelling a fired
  handle is a no-op.  A delay that is not ``>= 0`` (negative, or NaN) is
  refused.
* There is no periodic timer: every protocol loop (the §4.1 probe, the
  §4.6 refresh and sweep, the DESIGN §16 claim audit, the level check)
  schedules its first tick once and then re-arms that one handle each
  period (:meth:`repro.core.context.NodeContext.arm`), so a loop leaves
  nothing behind per period.  ``rearm`` queues a fired handle's callback
  again exactly as a fresh ``schedule`` at that call would — same time,
  same place among equal-time events — and is refused while the handle
  is pending or once it was cancelled.
* ``now`` is seconds on the backend's time base: simulated seconds for
  the DES backends, seconds since a configured epoch for the realtime
  backend (:class:`repro.live.clock.RealtimeClock`) — in both cases runs
  start near ``t = 0`` so exported span timestamps are comparable.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable reference to a scheduled callback, re-armable once it
    has fired."""

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        ...

    @property
    def active(self) -> bool:
        """True until the callback has run or the handle was cancelled."""
        ...

    def rearm(self, delay: float) -> None:
        """Queue the fired callback again after ``delay`` seconds, as a
        fresh ``schedule`` would.  Refused while pending or once cancelled."""
        ...


class Clock(abc.ABC):
    """Time and timers — the part of a runtime that is pure scheduling."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds on this backend's time base."""

    @abc.abstractmethod
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds."""
