"""The kernel clock: time and timers, independent of the execution engine.

Every timer the protocol arms goes through this interface, which pins
down the semantics all backends must share (they are the semantics of
:class:`repro.sim.engine.Simulator`, the original implementation):

* :meth:`Clock.schedule` returns a handle with ``cancel()`` and
  ``active``; cancel is idempotent and cancelling a fired handle is a
  no-op.
* :meth:`Clock.every` fires first after ``start_delay`` (default: one
  interval) and then repeatedly; with ``jitter > 0`` each gap is drawn
  uniformly from ``interval * [1 - jitter, 1 + jitter]`` using a
  **seeded** generator, so even the jitter is reproducible.  ``jitter``
  requires ``rng``; ``interval`` must be positive; ``jitter`` lies in
  ``[0, 1)``.
* ``now`` is seconds on the backend's time base: simulated seconds for
  the DES backends, seconds since a configured epoch for the realtime
  backend (:class:`repro.live.clock.RealtimeClock`) — in both cases runs
  start near ``t = 0`` so exported span timestamps are comparable.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable reference to a scheduled one-shot callback."""

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        ...

    @property
    def active(self) -> bool:
        """True until the callback has run or the handle was cancelled."""
        ...


@runtime_checkable
class PeriodicTimer(Protocol):
    """A repeating timer created by :meth:`Clock.every`."""

    def cancel(self) -> None:
        ...

    @property
    def active(self) -> bool:
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

    @abc.abstractmethod
    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng: Any = None,
    ) -> PeriodicTimer:
        """Run ``callback(*args)`` every ``interval`` seconds (jittered
        when ``jitter > 0``) until the returned timer is cancelled."""
