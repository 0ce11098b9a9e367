"""Pending-event sets for the discrete-event engine.

* :class:`HeapQueue` — a binary heap (``heapq``) of ``(time, seq)`` pairs
  plus a ``seq -> item`` table of the *live* entries, O(log n) per
  operation.  This is the engine's scheduler: every
  :class:`~repro.sim.engine.Simulator` builds one.
* :class:`CalendarQueue` — the classic Brown (1988) calendar queue, O(1)
  amortized when the event-time distribution is stable.  No simulator
  uses it: on the ledger's hold model it does about 1.0 M ops/s against
  the heap's 2.6 M (``sim.queues.calendar_ops_per_s`` / ``heap_ops_per_s``;
  0.83 M against 1.82 M on ISSUE 14's host).  The class remains only as
  the subject of that ledger row and of the ``tests/sim/test_queues.py``
  cross-check; it goes when the row does (ROADMAP item 1(b)).

Both take ``(time, seq, item)`` triples; ``seq`` is a monotonically
increasing tie-breaker so that events scheduled earlier run earlier at
equal timestamps, which makes runs deterministic.

**What the heap holds, and why.**  A pending timer lives for simulated
seconds — thousands of events — so whatever represents it is
medium-lived, and CPython's cyclic collector starts a *full* pass once
the objects promoted to its oldest generation exceed a quarter of that
generation.  A ``(time, seq, item)`` heap entry is a tuple the collector
must track (it refers to the item) and promote; a ``(time, seq)`` pair —
a float and an int — is untracked the first time a young pass meets it,
so a pending entry is never promoted and never walked again.  The item
sits in the table instead, and deletion is lazy *in the set*:
:meth:`HeapQueue.discard` drops the table row at once (the caller can
then release whatever the item referred to), and the stale heap pair is
skipped when it surfaces.  With the two other sources of medium-lived
timer garbage named in :mod:`repro.sim.engine` gone as well, the
2,000-node ``detailed_ring`` ledger workload went from 1,418 young / 128
middle / 9 full collector passes to 537 / 48 / 3.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, Iterator, List, Optional, Tuple

Entry = Tuple[float, int, Any]

_MISSING = object()


class HeapQueue:
    """Binary-heap pending-event set with deterministic tie-breaking and
    in-set lazy deletion.  ``seq`` must be unique among pending entries."""

    __slots__ = ("_heap", "_live")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int]] = []
        self._live: Dict[int, Any] = {}

    def __len__(self) -> int:
        """Heap entries, discarded ones that have not surfaced included."""
        return len(self._heap)

    def __contains__(self, seq: int) -> bool:
        """Whether the entry pushed with ``seq`` is still pending."""
        return seq in self._live

    def push(self, time: float, seq: int, item: Any) -> None:
        self._live[seq] = item
        heappush(self._heap, (time, seq))

    def discard(self, seq: int) -> bool:
        """Delete the pending entry pushed with ``seq``; False when it was
        already popped or discarded.  O(1): only the table row goes, the
        heap pair is dropped when it reaches the top."""
        return self._live.pop(seq, _MISSING) is not _MISSING

    def pop(self) -> Entry:
        """Remove and return the earliest live entry.

        Raises :class:`IndexError` when none remain.
        """
        heap, live = self._heap, self._live
        while True:
            time, seq = heappop(heap)
            item = live.pop(seq, _MISSING)
            if item is not _MISSING:
                return time, seq, item

    def peek(self) -> Optional[Entry]:
        """The earliest live entry, left in place, or ``None``."""
        time = self.peek_time()
        if time is None:
            return None
        seq = self._heap[0][1]
        return time, seq, self._live[seq]

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest live entry, or ``None``.  Discarded
        pairs at the top of the heap are dropped on the way."""
        heap, live = self._heap, self._live
        while heap:
            head = heap[0]
            if head[1] in live:
                return head[0]
            heappop(heap)
        return None

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()


class CalendarQueue:
    """Calendar-queue pending-event set (Brown 1988).

    Events are hashed into ``nbuckets`` day-buckets of width ``bucket_width``
    by ``t // width % nbuckets``; a full "year" is ``nbuckets * width``.
    Dequeue scans the current day for an event within the current year,
    falling back to a direct minimum search when the calendar is sparse.
    The queue resizes (doubling / halving the bucket count) to keep the
    average bucket occupancy near one, preserving O(1) amortized behaviour
    as the event population grows and shrinks.
    """

    def __init__(self, nbuckets: int = 16, bucket_width: float = 1.0) -> None:
        if nbuckets < 1:
            raise ValueError("nbuckets must be >= 1")
        if bucket_width <= 0:
            raise ValueError("bucket_width must be > 0")
        self._init_calendar(nbuckets, bucket_width, start_time=0.0)
        self._size = 0

    # -- internal helpers ------------------------------------------------

    def _init_calendar(self, nbuckets: int, width: float, start_time: float) -> None:
        self._nbuckets = nbuckets
        self._width = width
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        # The "current" position used by dequeues.
        self._last_time = start_time
        self._current = int(start_time / width) % nbuckets
        self._bucket_top = (int(start_time / width) + 1) * width

    def _bucket_index(self, time: float) -> int:
        return int(time / self._width) % self._nbuckets

    def _resize(self, nbuckets: int) -> None:
        entries: List[Entry] = [e for bucket in self._buckets for e in bucket]
        width = self._suggest_width(entries)
        self._init_calendar(nbuckets, width, self._last_time)
        for entry in entries:
            self._buckets[self._bucket_index(entry[0])].append(entry)

    def _suggest_width(self, entries: List[Entry]) -> float:
        """Pick a bucket width ~ average gap between adjacent event times."""
        if len(entries) < 2:
            return self._width
        times = sorted(e[0] for e in entries)
        # Sample the middle of the distribution to be robust to outliers.
        lo = len(times) // 4
        hi = max(lo + 2, (3 * len(times)) // 4)
        window = times[lo:hi]
        span = window[-1] - window[0]
        gaps = len(window) - 1
        if span <= 0.0 or gaps <= 0:
            return self._width
        return max(span / gaps * 3.0, 1e-12)

    # -- public interface --------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def push(self, time: float, seq: int, item: Any) -> None:
        if time < self._last_time:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self._last_time}"
            )
        self._buckets[self._bucket_index(time)].append((time, seq, item))
        self._size += 1
        if self._size > 2 * self._nbuckets:
            self._resize(2 * self._nbuckets)

    def pop(self) -> Entry:
        if self._size == 0:
            raise IndexError("pop from empty CalendarQueue")
        entry = self._dequeue_min()
        self._size -= 1
        self._last_time = entry[0]
        if self._nbuckets > 16 and self._size < self._nbuckets // 2:
            self._resize(self._nbuckets // 2)
        return entry

    def peek_time(self) -> Optional[float]:
        if self._size == 0:
            return None
        best = None
        for bucket in self._buckets:
            for entry in bucket:
                if best is None or entry[:2] < best[:2]:
                    best = entry
        assert best is not None
        return best[0]

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._size = 0

    def __iter__(self) -> Iterator[Entry]:
        for bucket in self._buckets:
            yield from bucket

    # -- dequeue machinery -------------------------------------------------

    def _dequeue_min(self) -> Entry:
        # Scan forward from the current day looking for an event within the
        # current year; after a full lap with no hit, fall back to a global
        # minimum search (sparse calendar).
        current = self._current
        bucket_top = self._bucket_top
        for _ in range(self._nbuckets):
            bucket = self._buckets[current]
            candidate_idx = -1
            candidate: Optional[Entry] = None
            for idx, entry in enumerate(bucket):
                if entry[0] < bucket_top and (
                    candidate is None or entry[:2] < candidate[:2]
                ):
                    candidate = entry
                    candidate_idx = idx
            if candidate is not None:
                bucket.pop(candidate_idx)
                self._current = current
                self._bucket_top = bucket_top
                return candidate
            current = (current + 1) % self._nbuckets
            bucket_top += self._width
        # Sparse: direct search over everything.
        best: Optional[Entry] = None
        best_pos: Tuple[int, int] = (-1, -1)
        for bidx, bucket in enumerate(self._buckets):
            for idx, entry in enumerate(bucket):
                if best is None or entry[:2] < best[:2]:
                    best = entry
                    best_pos = (bidx, idx)
        assert best is not None
        self._buckets[best_pos[0]].pop(best_pos[1])
        year = self._nbuckets * self._width
        self._current = self._bucket_index(best[0])
        self._bucket_top = (int(best[0] / self._width) + 1) * self._width
        # Keep bucket_top consistent with the year containing the popped event.
        if self._bucket_top - best[0] > year:
            self._bucket_top = best[0] + self._width
        return best
