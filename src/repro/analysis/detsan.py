"""DetSan — the runtime sanitizer: one walk over node state, plus clock
and RNG tripwires.

detlint proves the *absence of patterns*; DetSan checks a running
simulation for the bugs themselves.  It is opt-in (``repro chaos
--detsan`` or ``ChaosRunner(detsan=True)``) and has three checks:

* **held objects** — :func:`held_objects` walks every slot reachable from
  a node (its context, its services, their row tables, containers and
  pending closures) and names, by path, every
  :class:`~repro.core.pointer.Pointer` and
  :class:`~repro.net.message.Message` it finds.  Node state is rows and
  scalars: the peer list, both top-node lists and the bridge subscribers
  copy a pointer's fields in and build a fresh pointer on every read.  A
  pointer or message found in node state is therefore a received object
  kept, and with an in-memory transport that is the sender's live object:
  a channel between two nodes that the message fabric never sees.  A
  received payload container (a pointer list, a tuple body) is found
  through the pointers it carries.  :meth:`DetSan.final_scan` runs the
  walk over every node once the run is over.
* **wall-clock tripwire** (DET001's twin) — ``time.time()`` and friends
  are wrapped; a call whose caller is a ``repro.*`` module that DET001 or
  DET002 does not exempt (nor ``repro.analysis`` itself) is a violation.
* **global-RNG tripwire** (DET002's twin) — stdlib ``random`` and
  numpy's module-level draw functions are wrapped the same way.

The sanitizer observes only: wrapped clock/RNG functions still return
the original result, the walk reads and never writes, and everything is
restored on :meth:`DetSan.detach` — so a run with DetSan on is
behaviorally identical, just slower.
"""

from __future__ import annotations

import sys
import types
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.analysis.rules.determinism import UnseededRandomRule, WallClockRule
from repro.core.pointer import Pointer
from repro.net.message import Message

#: Caller modules allowed to touch the host clock / global RNG: the
#: modules the static rules DET001/DET002 exempt, and the analyzer.
_EXEMPT_CALLERS = (
    *WallClockRule.exempt_modules,
    *UnseededRandomRule.exempt_modules,
    "repro.analysis",
)

#: Findings kept per run; a tripwire in a hot loop repeats itself.
MAX_VIOLATIONS = 64

#: What node state may never hold: the objects messages carry.
HELD_TYPES = (Pointer, Message)

#: Modules whose objects the walk does not enter: the runtime and
#: transport (they hold every in-flight message), the harness that owns
#: all nodes, and host-side layers (engine, clocks, streams, telemetry).
_SKIP_MODULE_PREFIXES = (
    "repro.core.protocol",
    "repro.core.runtime",
    "repro.sim",
    "repro.net",
    "repro.kernel",
    "repro.obs",
    "repro.live",
)

_LEAVES = (type(None), str, bytes, int, float, bool, array)


@dataclass(frozen=True)
class DetSanViolation:
    """One sanitizer finding."""

    check: str  #: "held-object" | "wall-clock" | "global-rng"
    where: str  #: location: node key or caller module:line
    detail: str

    def describe(self) -> str:
        return f"[{self.check}] {self.where}: {self.detail}"


def _exempt_caller(module: str) -> bool:
    """Whether a ``repro.*`` caller may touch the host clock / global RNG:
    an exempt module or a dotted child of one, as ``Rule.applies_to``
    matches (``repro.live.clockwork`` is not ``repro.live.clock``)."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _EXEMPT_CALLERS
    )


def _state_items(obj: Any) -> List[Tuple[str, Any]]:
    """``(name, value)`` of every set attribute of an instance — its
    ``__slots__`` along the MRO and, where it has one, its ``__dict__`` —
    by name."""
    items: Dict[str, Any] = {}
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        for slot in (slots,) if isinstance(slots, str) else slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                items[slot] = getattr(obj, slot)
            except AttributeError:  # an unset slot
                pass
    items.update(getattr(obj, "__dict__", {}))
    return sorted(items.items(), key=lambda item: item[0])


def _edges(path: str, obj: Any) -> List[Tuple[str, Any]]:
    """``(path, child)`` for everything ``obj`` holds that the walk
    enters, in a fixed order.  Dict keys and set members are not
    entered: both held types are unhashable, so neither can hold one."""
    if isinstance(obj, _LEAVES):
        return []
    if isinstance(obj, dict):
        return [
            (f"{path}[{key!r}]", value)
            for key, value in obj.items()
            if not isinstance(value, _LEAVES)
        ]
    if isinstance(obj, (list, tuple)):
        return [
            (f"{path}[{i}]", item)
            for i, item in enumerate(obj)
            if not isinstance(item, _LEAVES)
        ]
    if isinstance(obj, types.MethodType):
        return [(f"{path}.__self__", obj.__self__), (path, obj.__func__)]
    if isinstance(obj, types.FunctionType):
        out = []
        for name, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
            try:
                out.append((f"{path} <{name}>", cell.cell_contents))
            except ValueError:  # a name the enclosing scope has not bound yet
                pass
        return out
    module = type(obj).__module__
    if module.startswith("repro.") and not module.startswith(_SKIP_MODULE_PREFIXES):
        return [(f"{path}.{name}", value) for name, value in _state_items(obj)]
    return []


def held_objects(node: Any) -> List[Tuple[str, Any]]:
    """``(path, object)`` for every :data:`HELD_TYPES` instance reachable
    from ``node`` — its context, services, row tables, containers and the
    closures it keeps.  Breadth first, so each path is a shortest one.  A
    clean node returns ``[]``."""
    found: List[Tuple[str, Any]] = []
    seen: Set[int] = {id(node)}
    queue = deque([("node", node)])
    while queue:
        path, obj = queue.popleft()
        if isinstance(obj, HELD_TYPES):
            found.append((path, obj))
            continue
        for edge in _edges(path, obj):
            if id(edge[1]) not in seen:
                seen.add(id(edge[1]))
                queue.append(edge)
    return found


class DetSan:
    """The sanitizer: attach to a :class:`PeerWindowNetwork`, run the
    workload, call :meth:`final_scan`, read :attr:`violations`."""

    def __init__(self) -> None:
        self.violations: List[DetSanViolation] = []
        self._net = None
        self._seen_keys: Set[Tuple] = set()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, net) -> None:
        """Remember the network for :meth:`final_scan` and install the
        clock/RNG tripwires."""
        if self._net is not None:
            raise RuntimeError("DetSan is already attached")
        self._net = net
        self._install_tripwires()

    def detach(self) -> None:
        """Restore every patched clock/RNG function."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._net = None

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- held objects -------------------------------------------------------

    def final_scan(self) -> List[DetSanViolation]:
        """Walk every node's state: each pointer or message it holds is a
        ``held-object`` violation."""
        if self._net is None:
            return self.violations
        for key, node in sorted(self._net.nodes.items(), key=lambda kv: repr(kv[0])):
            for path, obj in held_objects(node):
                self._record(
                    DetSanViolation(
                        "held-object",
                        repr(key),
                        f"{path} holds a {type(obj).__name__} — node state "
                        f"keeps a received object; store its fields, never "
                        f"the object",
                    )
                )
        return self.violations

    # -- clock / RNG tripwires ----------------------------------------------

    def _install_tripwires(self) -> None:
        # The sanitizer imports the global RNG module precisely to wrap
        # it; it never draws from it.
        import random as _random  # detlint: ignore[DET002]
        import time as _time

        for name in (
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns",
        ):
            self._patch(_time, name, "wall-clock")
        for name in (
            "random", "randint", "randrange", "uniform", "choice",
            "choices", "shuffle", "sample", "gauss", "expovariate",
        ):
            self._patch(_random, name, "global-rng")
        try:
            import numpy as _np
        except ImportError:  # pragma: no cover - numpy is a core dep
            return
        for name in (
            "random", "rand", "randint", "choice", "shuffle", "uniform",
            "normal", "permutation", "exponential",
        ):
            self._patch(_np.random, name, "global-rng")

    def _patch(self, owner: Any, name: str, check: str) -> None:
        original = getattr(owner, name, None)
        if original is None:  # pragma: no cover - missing on this platform
            return
        sanitizer = self

        def tripwire(*args: Any, **kwargs: Any) -> Any:
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro.") and not _exempt_caller(module):
                sanitizer._record(
                    DetSanViolation(
                        check,
                        f"{module}:{frame.f_lineno}",
                        f"{owner.__name__}.{name}() called from simulator "
                        f"code — use the runtime clock / seeded streams",
                    )
                )
            return original(*args, **kwargs)

        tripwire.__name__ = getattr(original, "__name__", name)
        setattr(owner, name, tripwire)
        self._patched.append((owner, name, original))

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, violation: DetSanViolation) -> None:
        key = (violation.check, violation.where, violation.detail[:60])
        if key in self._seen_keys:
            return
        if len(self.violations) >= MAX_VIOLATIONS:
            return
        self._seen_keys.add(key)
        self.violations.append(violation)
