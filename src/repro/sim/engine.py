"""Sequential discrete-event simulation core.

The engine is deliberately small and fast: the pending set
(:class:`~repro.sim.queues.HeapQueue`) is a binary heap of ``(time,
seq)`` pairs plus a ``seq -> EventHandle`` table of the events still to
run.  Cancellation is lazy in the heap and immediate everywhere else:
:meth:`EventHandle.cancel` takes the handle out of the table and drops
its ``callback`` / ``args`` on the spot, and the stale heap pair is
skipped when it surfaces, which avoids O(n) heap surgery.

**Why cancel releases.**  CPython's cyclic collector runs a full pass
once the objects promoted to its oldest generation exceed a quarter of
it, so what a simulator pays the collector is set by its *medium-lived*
garbage — and timer bookkeeping is exactly that.  Three sources were
measured on the 2,000-node ``detailed_ring`` ledger workload: heap
entries that referred to their handle (tracked, promoted, alive as long
as the timer — see :mod:`repro.sim.queues`); a replied request's timeout
keeping its closure graph queued for the full timeout; and per-node
lists of fired loop handles (:meth:`repro.core.context.NodeContext.track`).
With all three gone a request's ``on_timeout`` closure dies by refcount
at the reply, and the ring's collector passes fell from 1,418 young /
128 middle / 9 full (2.8 of 7.8 host-seconds) to 537 / 48 / 3 (0.7 s).

There is one programming style, callbacks: ``sim.schedule(delay, fn,
*args)`` and its relatives below.

Determinism: with a fixed seed (see :mod:`repro.sim.rng`) and the
tie-breaking sequence number, two runs of the same model produce identical
event orders, which the test suite relies on.

**Batches.**  :meth:`Simulator.schedule_batch` queues any number of timers
— sorted by ``(time, seq)``, numbered from a block :meth:`Simulator.reserve`
set aside — as one pending entry: one handle that stands for the timer due
next and re-arms itself as each fires.  100,000 seeded departures are then
one sort and three flat lists, not 100,000 handles, bound methods and heap
pairs for the collector to walk (DESIGN.md §4, *Schedule discipline*).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.sim.queues import HeapQueue


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling into the past, etc.)."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    The handle is *pending* while the simulator's pending set holds it,
    then either *done* (it ran) or *cancelled* — and a cancelled handle
    has let go of its callback and arguments.
    """

    __slots__ = ("time", "seq", "callback", "args", "_queue")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: tuple,
        queue: HeapQueue,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args: Optional[tuple] = args
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the callback from running and release it.  Idempotent;
        cancelling an already-executed handle is a no-op."""
        if self._queue.discard(self.seq):
            self.callback = self.args = None

    @property
    def active(self) -> bool:
        return self.seq in self._queue

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    @property
    def done(self) -> bool:
        return not (self.cancelled or self.active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("done" if self.done else "pending")
        return f"<EventHandle t={self.time:.6g} {state} {self.callback!r}>"


class PeriodicTask:
    """A repeating timer created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "callback", "args", "_handle", "_cancelled", "fired")

    def __init__(
        self, sim: "Simulator", interval: float, callback: Callable[..., Any], args: tuple
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self._handle: Optional[EventHandle] = None
        self._cancelled = False
        self.fired = 0

    def _schedule(self, delay: float) -> None:
        if not self._cancelled:
            self._handle = self.sim.schedule(delay, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fired += 1
        self.callback(*self.args)
        self._schedule(self.interval)

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._cancelled


class Simulator:
    """A sequential discrete-event simulator.

    A :meth:`run` ends only when the queue drains, at ``until`` or after
    ``max_events``: no callback can cut it short.  An in-run judge (the
    chaos runner's health windower, DESIGN.md §14) records its verdicts
    at stride boundaries and leaves the run to its driver.

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

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def __len__(self) -> int:
        """Number of queued entries, cancelled ones that have not yet
        surfaced included.  A :meth:`schedule_batch` is one entry however
        many of its timers are still to fire: this is heap size, not work left."""
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
        if not time >= self._now:  # not ``time < now``, which a NaN passes
            raise SimulationError(f"cannot schedule at {time}: NaN, or in the past of {self._now}")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        handle = EventHandle(time, seq, callback, args, queue)
        queue.push(time, seq, handle)
        return handle

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers (what that many
        :meth:`schedule` calls would get) for a batch; returns the first."""
        if count < 0:
            raise SimulationError(f"cannot reserve {count} sequence numbers")
        self._seq += count
        return self._seq - count

    def schedule_batch(
        self, times: Any, seqs: Any, callback: Callable[..., Any],
        values: Sequence[Any], *args: Any,
    ) -> None:
        """Queue ``callback(values[i], *args)`` at absolute ``times[i]`` for
        every ``i`` as **one** pending entry, nothing allocated per timer
        (``values`` is kept, not copied).  A batch must be the scalar
        schedule: ``seqs[i]`` is the number timer i's own :meth:`schedule_at`
        call would have got, from a :meth:`reserve` block (each used once),
        and the timers arrive sorted by ``(time, seq)`` — the order they
        run in, among themselves and against every other event."""
        at, order = np.asarray(times, dtype=np.float64), np.asarray(seqs, dtype=np.int64)
        if at.ndim != 1 or at.shape != order.shape or at.size != len(values):
            raise SimulationError("a batch needs one time, seq and value per entry")
        if at.size == 0:
            return
        if np.isnan(at).any() or at[0] < self._now:
            raise SimulationError(f"batch from {at[0]}: has a NaN, or in the past of {self._now}")
        gaps = np.diff(at)
        if (gaps < 0).any() or (np.diff(order)[gaps == 0] <= 0).any():
            raise SimulationError("a batch must arrive sorted by (time, seq)")
        if order.min() < 0 or order.max() >= self._seq:
            raise SimulationError("batch sequence numbers must come from reserve()")
        when, number = at.tolist(), order.tolist()
        queue, last, i = self._queue, len(when) - 1, 0

        def fire() -> None:
            # Re-armed *before* the callback: if that raises or schedules,
            # the queue is what the scalar schedule would have left.
            nonlocal i
            value = values[i]
            if i < last:
                i += 1
                head.time, head.seq = when[i], number[i]
                queue.push(when[i], number[i], head)
            callback(value, *args)

        head = EventHandle(when[0], number[0], fire, (), queue)
        queue.push(when[0], number[0], head)

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until the
        returned :class:`PeriodicTask` is cancelled.  The first firing is
        after ``start_delay`` (default: one interval)."""
        if not interval > 0:
            raise SimulationError("interval must be positive")
        task = PeriodicTask(self, interval, callback, args)
        task._schedule(interval if start_delay is None else start_delay)
        return task

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        try:
            time, _seq, handle = self._queue.pop()
        except IndexError:
            return False
        self._now = time
        self._events_executed += 1
        handle.callback(*handle.args)
        return True

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None``.

        Cancelled heads are discarded; the first live head is read in
        place, so ``(time, seq)`` order — FIFO ties included — is
        untouched.
        """
        return self._queue.peek_time()

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
        if until != until:  # NaN: no event time is ever "> until"
            raise SimulationError("cannot run until NaN")
        self._running = True
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
            if until is not None and self._now < until and self._queue.peek_time() is None:
                self._now = until
            return self._now
        finally:
            self._running = False
