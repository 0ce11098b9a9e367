"""Sequential discrete-event simulation core.

The engine is deliberately small and fast: events are ``(time, seq,
callback)`` triples in a binary-heap pending-event set, with *lazy
cancellation* — cancelling marks the handle dead and the dispatcher drops
dead entries on pop, which avoids O(n) heap surgery.

Two programming styles are supported:

* **callback style** — ``sim.schedule(delay, fn, *args)``;
* **process style** — ``sim.process(gen)`` where ``gen`` is a generator
  that yields either a ``float`` (sleep for that many simulated seconds) or
  an :class:`Event` (wait until the event is triggered).  Process style is
  used by the protocol state machines; callback style by the transport.

Determinism: with a fixed seed (see :mod:`repro.sim.rng`) and the
tie-breaking sequence number, two runs of the same model produce identical
event orders, which the test suite relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.sim.queues import HeapQueue


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling into the past, etc.)."""


class EventHandle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("time", "callback", "args", "cancelled", "done")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; cancelling an
        already-executed handle is a no-op."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not (self.cancelled or self.done)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("done" if self.done else "pending")
        return f"<EventHandle t={self.time:.6g} {state} {self.callback!r}>"


class Event:
    """A triggerable condition that processes can wait on.

    ``Event`` is the synchronization primitive for process-style code:
    any number of processes may ``yield event``; when ``event.trigger(value)``
    is called every waiter resumes (in wait order) with ``value`` as the
    result of the ``yield``.  Triggering is level-sensitive: a process that
    waits on an already-triggered event resumes immediately.
    """

    __slots__ = ("sim", "_triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._triggered = False
        self.value: Any = None
        self._waiters: List[Generator] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError("Event already triggered")
        self._triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule(0.0, self.sim._resume_process, proc, value)

    def _add_waiter(self, proc: Generator) -> None:
        if self._triggered:
            self.sim.schedule(0.0, self.sim._resume_process, proc, self.value)
        else:
            self._waiters.append(proc)


class PeriodicTask:
    """A repeating timer created by :meth:`Simulator.every`.

    With ``jitter > 0`` each period is drawn uniformly from
    ``interval * [1 - jitter, 1 + jitter]`` using the supplied seeded
    generator, which breaks the lockstep synchronization of thousands of
    identical timers at scale while staying fully reproducible.
    """

    __slots__ = (
        "sim", "interval", "callback", "args", "jitter", "rng",
        "_handle", "_cancelled", "fired",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        jitter: float = 0.0,
        rng: Any = None,
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.jitter = jitter
        self.rng = rng
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self.fired = 0

    def _next_interval(self) -> float:
        if self.jitter <= 0.0:
            return self.interval
        spread = self.jitter * (2.0 * float(self.rng.random()) - 1.0)
        return self.interval * (1.0 + spread)

    def _schedule(self, delay: float) -> None:
        if not self._cancelled:
            self._handle = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self.callback(*self.args)
        self._schedule(self._next_interval())

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._cancelled


class Simulator:
    """A sequential discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulation clock value (seconds).
    """

    def __init__(self, start_time: float = 0.0):
        self._queue = HeapQueue()
        self._now = float(start_time)
        self._seq = 0
        self._events_executed = 0
        self._running = False
        self._stop_requested = False
        #: Optional :class:`repro.obs.profile.PhaseProfiler` timing event
        #: dispatch (wall clock; never affects simulated behaviour).
        self.profiler = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __len__(self) -> int:
        """Number of pending (possibly cancelled) entries."""
        return len(self._queue)

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past: {time} < {self._now}")
        handle = EventHandle(time, callback, args)
        self._queue.push(time, self._seq, handle)
        self._seq += 1
        return handle

    def event(self) -> Event:
        """Create a fresh :class:`Event` bound to this simulator."""
        return Event(self)

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng: Any = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until the
        returned :class:`PeriodicTask` is cancelled.  The first firing is
        after ``start_delay`` (default: one interval).

        ``jitter`` (a fraction of the interval, in ``[0, 1)``) desynchronizes
        the period: every gap is drawn from ``interval * [1-jitter, 1+jitter]``
        using ``rng`` (a seeded :class:`numpy.random.Generator`, e.g. from
        :class:`repro.sim.rng.RandomStreams`), so runs stay reproducible.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")
        if jitter > 0.0 and rng is None:
            raise SimulationError("jitter requires a seeded rng")
        task = PeriodicTask(self, interval, callback, args, jitter=jitter, rng=rng)
        task._schedule(interval if start_delay is None else start_delay)
        return task

    # -- processes -----------------------------------------------------------

    def process(self, generator: Generator) -> Generator:
        """Register a generator as a simulation process and start it now."""
        self.schedule(0.0, self._resume_process, generator, None)
        return generator

    def _resume_process(self, proc: Generator, value: Any) -> None:
        try:
            yielded = proc.send(value)
        except StopIteration:
            return
        if isinstance(yielded, Event):
            yielded._add_waiter(proc)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(f"process yielded negative delay {yielded}")
            self.schedule(float(yielded), self._resume_process, proc, None)
        else:
            raise SimulationError(
                f"process yielded {yielded!r}; expected a delay or an Event"
            )

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        while True:
            try:
                time, _seq, handle = self._queue.pop()
            except IndexError:
                return False
            if handle.cancelled:
                continue
            self._now = time
            handle.done = True
            self._events_executed += 1
            if self.profiler is not None:
                self.profiler.time("sim.dispatch", handle.callback, *handle.args)
            else:
                handle.callback(*handle.args)
            return True

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None``.

        Dead (cancelled) heads are discarded; the first live head is read
        in place, so ``(time, seq)`` order — FIFO ties included — is
        untouched.
        """
        queue = self._queue
        while True:
            head = queue.peek()
            if head is None:
                return None
            if not head[2].cancelled:
                return head[0]
            queue.pop()

    def stop(self) -> None:
        """Request that the current (or next) :meth:`run` return after the
        event being dispatched completes.

        This is the cooperative halt used by in-simulation monitors — e.g.
        a live health monitor breaching an SLO — to end a run early
        without unwinding the dispatch stack; pending events stay queued,
        so a later ``run()`` continues from where the halt left off.
        """
        self._stop_requested = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have executed.  Returns the final clock value.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` (events at later times stay pending).
        """
        if self._running:
            raise SimulationError("run() re-entered")
        self._running = True
        self._stop_requested = False
        try:
            executed = 0
            while True:
                if max_events is not None and executed >= max_events:
                    break
                # peek() skips cancelled entries; using the raw queue head
                # here would let step() run a live event beyond `until`
                # whenever a cancelled entry fronted the queue.
                next_t = self.peek()
                if next_t is None:
                    break
                if until is not None and next_t > until:
                    self._now = until
                    break
                if not self.step():
                    break
                executed += 1
                if self._stop_requested:
                    break
            if until is not None and self._now < until and self._queue.peek_time() is None:
                self._now = until
            return self._now
        finally:
            self._running = False
