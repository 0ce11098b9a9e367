"""Three counters of what the program costs, each the same on any machine
and each a context manager around the block it counts: profile events
(:class:`Profile`), collector passes (:class:`Passes`) and what the block
leaves allocated (:class:`Footprint`).  Their bounds are the rows of
``tests/test_costs.py``.  Nothing here imports the program, so a fresh
interpreter can count with it and stay fresh.
"""

import gc
import sys
import tracemalloc
from collections import Counter


class Profile:
    """``calls`` (Python) and ``c_calls``; with ``keyed=True`` also
    ``by_code`` (Python calls by code object) and ``by_name`` (C calls by
    the callee's name), at about half again the hook's cost."""

    def __init__(self, keyed: bool = False):
        self.keyed, self.calls, self.c_calls = keyed, 0, 0
        self.by_code, self.by_name = Counter(), Counter()

    def _count(self, frame, event, arg):
        if event == "call":
            self.calls += 1
        elif event == "c_call":
            self.c_calls += 1

    def _key(self, frame, event, arg):
        if event == "call":
            self.by_code[frame.f_code] += 1
        elif event == "c_call":
            self.by_name[getattr(arg, "__name__", "")] += 1

    def __enter__(self):
        sys.setprofile(self._key if self.keyed else self._count)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        if self.keyed:
            self.calls, self.c_calls = sum(self.by_code.values()), sum(self.by_name.values())

    def named(self, name: str) -> int:
        """Keyed calls of anything called ``name``, Python or C."""
        return self.by_name[name] + sum(
            count for code, count in self.by_code.items() if code.co_name == name
        )


class Passes:
    """Collector passes started by generation (``by_gen``), counted from a
    full collection."""

    def _pass(self, phase, info):
        if phase == "start":
            self.by_gen[info["generation"]] += 1

    def __enter__(self):
        gc.collect()
        self.by_gen = [0, 0, 0]
        gc.callbacks.append(self._pass)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._pass)


class Footprint:
    """With both ends collected: ``tracked`` objects the block added (and
    ``typed`` of type ``of``) and, with ``trace=True``, ``traced`` bytes."""

    def __init__(self, of: type = object, trace: bool = False):
        self.of, self.trace = of, trace
        self.tracked = self.typed = self.traced = 0

    def _count(self, sign):
        gc.collect()
        if self.trace and sign > 0:
            self.traced += tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
        objects = gc.get_objects()
        self.tracked += sign * len(objects)
        if self.of is not object:
            self.typed += sign * sum(1 for obj in objects if type(obj) is self.of)

    def __enter__(self):
        self._count(-1)
        if self.trace:
            tracemalloc.start()
            self.traced = -tracemalloc.get_traced_memory()[0]
        return self

    def __exit__(self, *exc):
        self._count(+1)
