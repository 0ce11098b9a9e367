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
garbage — and timer bookkeeping is exactly that.  Five sources were
measured on the 2,000-node ``detailed_ring`` ledger workload.  The first
three: heap entries that referred to their handle (tracked, promoted,
alive as long as the timer — see :mod:`repro.sim.queues`); a replied
request's timeout keeping its closure graph queued for the full timeout;
and per-node lists of fired loop handles.  With those gone a request's
callbacks die by refcount at the reply, and the ring's collector passes
fell from 1,418 young / 128 middle / 9 full (2.8 of 7.8 host-seconds) to
537 / 48 / 3 (0.7 s).  The other two were made per period and per probe:
a fresh handle and bound method for every loop tick, each alive for the
whole period, and two closures with their cells for every request.  A
loop now re-arms its one handle (:meth:`EventHandle.rearm`,
:meth:`repro.core.context.NodeContext.arm`), and a request passes
callbacks bound once plus per-request arguments, so over the workload's
276,000 events the passes fell from 616 / 56 / 5 to 197 / 17 / 1
(22.3 → 7.1 young passes per 10^4 events; the ``rounds`` rows of
``tests/test_costs.py`` count them).  A run of this ring makes no cyclic
garbage at all: what the collector still walks is the per-message young
garbage it frees anyway.

There is one programming style, callbacks: ``sim.schedule(delay, fn,
*args)`` and its relatives below.

**A hop in three frames.**  Every message of a detailed run is one
:meth:`Simulator.schedule` and one :meth:`Simulator.step`, so the engine
does its work in those frames: ``schedule`` checks, numbers and pushes
itself (the refusals are :meth:`Simulator.schedule_at`'s, message for
message), ``step`` and ``peek`` pop and read the queue's heap and table
directly, and ``cancel`` / ``rearm`` touch the table the same way.
``step``, ``peek`` and ``schedule_at`` stay methods, and :meth:`Simulator.run`
looks ``peek`` and ``step`` up once per run on the instance, because the
ledger's tracer wraps them on the class (``sim.engine.events`` is counted
through ``step``).  On a 2,000-node ring a §4.1 probe round costs the
engine 14 Python calls instead of 35 (DESIGN.md §4, *A hop's cost*).

Determinism: with a fixed seed (see :mod:`repro.sim.rng`) and the
tie-breaking sequence number, two runs of the same model produce identical
event orders, which the test suite relies on.

**Batches.**  :meth:`Simulator.schedule_batch` queues any number of timers
— sorted by ``(time, seq)``, numbered from a block :meth:`Simulator.reserve`
set aside — as one pending entry: one handle that stands for the timer due
next and re-arms itself as each fires.  100,000 seeded departures are then
one sort and three flat lists, not 100,000 handles, bound methods and heap
pairs for the collector to walk (DESIGN.md §4, *Schedule discipline*).

**Rows.**  :meth:`Simulator.timer_rows` is the same for timers that come
one at a time — a scalable run's leaves and refreshes, pushed as its nodes
join: each :meth:`TimerRows.push` is a ``(time, seq, value)`` row of one
heap, numbered as :meth:`schedule` would number it, behind one handle
armed at the earliest row.  ``step`` and ``schedule`` are untouched: a
fired row is one ``step`` of that handle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.sim.queues import HeapQueue


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling into the past, etc.)."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    The handle is *pending* while the simulator's pending set holds it,
    then either *done* (it ran) or *cancelled* — and a cancelled handle
    has let go of its callback and arguments.  A done handle can be
    queued again with :meth:`rearm`, which is how a periodic loop keeps
    one handle for its whole life.
    """

    __slots__ = ("time", "seq", "callback", "args", "_sim")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: tuple,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args: Optional[tuple] = args
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running and release it.  Idempotent;
        cancelling an already-executed handle is a no-op."""
        if self._sim._live.pop(self.seq, None) is not None:
            self.callback = self.args = None

    def rearm(self, delay: float) -> None:
        """Queue this done handle's callback again, ``delay`` seconds from
        now, with the sequence number a fresh :meth:`Simulator.schedule`
        would take at this call — so the event order, and
        ``events_executed``, are those of scheduling anew.  Refused while
        the handle is pending and once it was cancelled."""
        if self.callback is None:
            raise SimulationError("cannot rearm a cancelled handle")
        sim = self._sim
        live = sim._live
        if self.seq in live:
            raise SimulationError("cannot rearm a pending handle")
        if not delay >= 0:  # not ``delay < 0``, which a NaN passes
            raise SimulationError(f"cannot rearm after {delay} s: NaN, or negative")
        self.time = time = sim._now + delay
        self.seq = seq = sim._seq
        sim._seq = seq + 1
        live[seq] = self
        heappush(sim._heap, (time, seq))

    @property
    def active(self) -> bool:
        return self.seq in self._sim._queue

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
    """A repeating timer created by :meth:`Simulator.every`: one handle,
    re-armed after each firing."""

    __slots__ = ("interval", "callback", "args", "_handle", "_cancelled", "fired")

    def __init__(
        self, sim: "Simulator", interval: float, callback: Callable[..., Any],
        args: tuple, start_delay: float,
    ):
        self.interval = interval
        self.callback = callback
        self.args = args
        self._cancelled = False
        self.fired = 0
        self._handle = sim.schedule(start_delay, self._fire)

    def _fire(self) -> None:
        self.fired += 1
        self.callback(*self.args)
        if not self._cancelled:  # the callback may have cancelled the task
            self._handle.rearm(self.interval)

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._cancelled


class TimerRows:
    """Timers that share a callback, pushed one at a time, as rows of one
    heap behind **one** pending entry (:meth:`Simulator.timer_rows`).

    ``push(delay, value)`` is the scalar ``schedule(delay, callback, value,
    *args)``: the row ``(time, seq, value)`` takes the sequence number that
    call would have, so it runs at the same point of the run, ties
    included.  One :class:`EventHandle` is armed at the earliest row.  A
    push that becomes the earliest moves the handle to it (the heap pair it
    leaves behind is skipped when it surfaces, as a cancelled one is), and
    firing a row moves the handle to the next row *before* the callback
    runs, as a batch does.  What a pending row costs is one tuple of a
    float and two ints, which the collector stops tracking at its first
    pass — not a handle, an args tuple, a heap pair and a table entry.
    Rows cannot be cancelled: a callback checks whether it still applies.
    """

    __slots__ = ("_sim", "_rows", "_head", "_callback", "_args")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any], args: tuple):
        self._sim = sim
        self._rows: list = []
        self._callback = callback
        self._args = args
        self._head = EventHandle(0.0, -1, self._fire, (), sim)

    def push(self, delay: float, value: Any) -> None:
        """Queue ``callback(value, *args)`` ``delay`` seconds from now,
        refused as :meth:`Simulator.schedule` refuses it."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        sim = self._sim
        now = sim._now
        time = now + delay
        if not time >= now:  # a NaN delay
            raise SimulationError(f"cannot schedule at {time}: NaN, or in the past of {now}")
        seq = sim._seq
        sim._seq = seq + 1
        rows = self._rows
        heappush(rows, (time, seq, value))
        if rows[0][1] == seq:  # the earliest row now: the handle moves to it
            head, live = self._head, sim._live
            live.pop(head.seq, None)
            head.time, head.seq = time, seq
            live[seq] = head
            heappush(sim._heap, (time, seq))

    def _fire(self) -> None:
        rows = self._rows
        value = heappop(rows)[2]
        if rows:
            time, seq, _value = rows[0]
            head, sim = self._head, self._sim
            head.time, head.seq = time, seq
            sim._live[seq] = head
            heappush(sim._heap, (time, seq))
        self._callback(value, *self._args)


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
        self._queue = queue = HeapQueue()
        #: The queue's heap and table, which :meth:`schedule`, :meth:`step`,
        #: :meth:`peek` and a handle's ``cancel`` / ``rearm`` work on in
        #: their own frames.
        self._heap, self._live = queue._heap, queue._live
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
        surfaced included.  A :meth:`schedule_batch` or :meth:`timer_rows`
        is one entry however many of its timers are still to fire (plus,
        for rows, the pairs a moved handle left behind): this is heap size,
        not work left."""
        return len(self._queue)

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        The refusals and the push are :meth:`schedule_at`'s, done in this
        frame: every message and timer of a run comes through here."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        now = self._now
        time = now + delay
        if not time >= now:  # a NaN delay
            raise SimulationError(f"cannot schedule at {time}: NaN, or in the past of {now}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        self._live[seq] = handle
        heappush(self._heap, (time, seq))
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:  # not ``time < now``, which a NaN passes
            raise SimulationError(f"cannot schedule at {time}: NaN, or in the past of {self._now}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        self._queue.push(time, seq, handle)
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

        head = EventHandle(when[0], number[0], fire, (), self)
        queue.push(when[0], number[0], head)

    def timer_rows(self, callback: Callable[..., Any], *args: Any) -> "TimerRows":
        """An empty :class:`TimerRows`: timers pushed one at a time, each
        running ``callback(value, *args)``, held as one pending entry."""
        return TimerRows(self, callback, args)

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
        return PeriodicTask(
            self, interval, callback, args, interval if start_delay is None else start_delay
        )

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        heap, live = self._heap, self._live
        while heap:
            time, seq = heappop(heap)
            handle = live.pop(seq, None)  # None: cancelled, skip it
            if handle is not None:
                self._now = time
                self._events_executed += 1
                handle.callback(*handle.args)
                return True
        return False

    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None``.

        Cancelled heads are discarded; the first live head is read in
        place, so ``(time, seq)`` order — FIFO ties included — is
        untouched.
        """
        heap, live = self._heap, self._live
        while heap:
            head = heap[0]
            if head[1] in live:
                return head[0]
            heappop(heap)
        return None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have executed.  Returns the final clock value.

        When stopping at ``until``, the clock is advanced to exactly
        ``until`` (events at later times stay pending).  An ``until``
        before the clock is refused and leaves it where it is; ``until ==
        now`` runs only the events due now.
        """
        if self._running:
            raise SimulationError("run() re-entered")
        if until != until:  # NaN: no event time is ever "> until"
            raise SimulationError("cannot run until NaN")
        if until is not None and until < self._now:
            raise SimulationError("cannot run backwards")
        self._running = True
        # Bound once, and looked up on the instance so that a wrapper
        # installed on the class (the ledger's tracer) is the one called.
        peek, step = self.peek, self.step
        try:
            executed = 0
            while True:
                if max_events is not None and executed >= max_events:
                    break
                # peek() skips cancelled entries; using the raw queue head
                # here would let step() run a live event beyond `until`
                # whenever a cancelled entry fronted the queue.
                next_t = peek()
                if next_t is None:
                    break
                if until is not None and next_t > until:
                    self._now = until
                    break
                if not step():
                    break
                executed += 1
            if until is not None and self._now < until and self._queue.peek_time() is None:
                self._now = until
            return self._now
        finally:
            self._running = False
