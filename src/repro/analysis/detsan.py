"""DetSan — the runtime cross-validator for the static determinism and
isolation rules.

detlint's ISO001/ISO003 prove the *absence of patterns*; DetSan checks
the *absence of the bug itself* while a simulation actually runs.  It is
an opt-in sanitizer (``REPRO_DETSAN=1`` or ``repro chaos --detsan``)
with three checks:

* **payload retention** (ISO001's runtime twin) — every mutable object
  that crosses the transport boundary inside a ``Message.payload`` is
  tagged by identity; after the receiving handler returns (and again in
  a whole-network final scan) no tagged object may be reachable from any
  *other* node's ``ctx``/service state.  With the in-memory transport a
  retained payload is the sender's live object: the exact shared-Pointer
  bug the PR 2 chaos runs surfaced.
* **wall-clock tripwire** (DET001's twin) — ``time.time()`` and friends
  are wrapped; a call whose caller is a ``repro.*`` module outside the
  sanctioned list (realtime clock, dashboard) is a violation.
* **global-RNG tripwire** (DET002's twin) — stdlib ``random`` and
  numpy's module-level draw functions are wrapped the same way.

The sanitizer observes only: deliveries are passed through unchanged,
wrapped clock/RNG functions still return the original result, and
everything is restored on :meth:`DetSan.detach` — so a run with DetSan
on is behaviorally identical, just slower.

Sequential engine only: the retention check needs the single central
delivery point (``Transport._deliver``); the partitioned transports
deliver inside their own LPs and have no such chokepoint.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

#: Environment variable that opts a run into the sanitizer.
DETSAN_ENV = "REPRO_DETSAN"

#: Caller-module prefixes allowed to touch the host clock / global RNG
#: (mirrors the exemptions of the static rules DET001/DET002).
_EXEMPT_CALLERS = (
    "repro.obs.dashboard",
    "repro.live.clock",
    "repro.analysis",
)

#: ctx attributes that are infrastructure, not protocol state: scanning
#: them would walk into the runtime/transport (which legitimately holds
#: every in-flight message) or into host objects.
_CTX_INFRA_ATTRS = {
    "runtime",
    "endpoint",
    "obs",
    "config",
    "rng",
    "attached_info",
    "report_event",
    "confirm_dead",
    "loop_timers",
}
#: Service attributes skipped for the same reason.
_SERVICE_INFRA_ATTRS = {"ctx", "runtime", "sim", "transport", "obs"}

#: Object-type modules never expanded during the reachability walk:
#: infrastructure layers whose internals either hold every message
#: (transport, runtime) or are host-side (obs, kernel, sim).
_SKIP_MODULE_PREFIXES = (
    "repro.sim",
    "repro.net",
    "repro.kernel",
    "repro.obs",
    "repro.live",
)


@dataclass(frozen=True)
class DetSanViolation:
    """One sanitizer finding."""

    check: str  #: "payload-retained" | "wall-clock" | "global-rng"
    where: str  #: location: node key or caller module:line
    detail: str

    def describe(self) -> str:
        return f"[{self.check}] {self.where}: {self.detail}"


def detsan_requested(env: Optional[Dict[str, str]] = None) -> bool:
    """Did the environment opt into the sanitizer (``REPRO_DETSAN=1``)?"""
    value = (env if env is not None else os.environ).get(DETSAN_ENV, "")
    return value.strip().lower() in ("1", "true", "on", "yes")


def _is_mutable_payload(obj: Any) -> bool:
    """Is this a payload component whose *identity* matters — a mutable
    container or a mutable protocol object (Pointer, ...)?

    Hashable protocol objects (NodeId, frozen EventRecord) are immutable
    value types: sharing them across nodes is safe and intended, so they
    are not tagged.  Unhashability is Python's own marker for "mutable,
    identity matters" (non-frozen dataclasses set ``__hash__ = None``).
    """
    if obj is None or isinstance(obj, (str, bytes, int, float, bool)):
        return False
    if isinstance(obj, (list, dict, set, bytearray)):
        return True
    return (
        type(obj).__module__.startswith("repro.")
        and type(obj).__hash__ is None
    )


def _payload_objects(payload: Any) -> List[Any]:
    """The mutable objects a payload carries (tuples/lists unpacked one
    level — wire payloads are flat by schema)."""
    out: List[Any] = []
    if isinstance(payload, (tuple, list)):
        if isinstance(payload, list) and _is_mutable_payload(payload):
            out.append(payload)
        for item in payload:
            if isinstance(item, (list, tuple)):
                out.extend(_payload_objects(item))
            elif _is_mutable_payload(item):
                out.append(item)
    elif _is_mutable_payload(payload):
        out.append(payload)
    return out


def _object_fields(obj: Any) -> List[Any]:
    """Attribute values of an instance, working for both ``__dict__``
    and ``__slots__`` layouts."""
    try:
        return list(vars(obj).values())
    except TypeError:
        pass
    values: List[Any] = []
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            try:
                values.append(getattr(obj, slot))
            except AttributeError:  # pragma: no cover - unset slot
                pass
    return values


class DetSan:
    """The sanitizer: attach to a sequential :class:`PeerWindowNetwork`,
    run the workload, call :meth:`final_scan`, read :attr:`violations`."""

    def __init__(
        self,
        max_tracked: int = 512,
        scan_depth: int = 8,
        scan_stride: int = 16,
        max_violations: int = 64,
    ):
        self.max_tracked = max_tracked
        self.scan_depth = scan_depth
        #: Full receiver-state scans are sampled (every Nth delivery);
        #: the final scan covers everything still in the tag ring.
        self.scan_stride = max(1, scan_stride)
        self.max_violations = max_violations
        self.violations: List[DetSanViolation] = []
        self.deliveries_seen = 0
        self.deliveries_scanned = 0
        self._net = None
        self._orig_deliver: Optional[Callable] = None
        #: Ring of (kind, src, dst, objects) for delivered payloads —
        #: strong references, so ``id()`` stays unambiguous.
        self._ring: deque = deque(maxlen=max_tracked)
        self._seen_keys: Set[Tuple] = set()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, net) -> None:
        """Wrap the network's transport delivery and install the
        clock/RNG tripwires.  Sequential engine only."""
        if self._net is not None:
            raise RuntimeError("DetSan is already attached")
        transport = getattr(net, "transport", None)
        if transport is None:
            raise ValueError(
                "DetSan requires the sequential engine: partitioned "
                "transports deliver inside their own LPs and offer no "
                "central tap point (run without parallel=)"
            )
        self._net = net
        self._orig_deliver = transport._deliver
        transport._deliver = self._deliver_tap
        self._install_tripwires()

    def detach(self) -> None:
        """Restore the transport and every patched clock/RNG function."""
        if self._net is not None and self._orig_deliver is not None:
            self._net.transport._deliver = self._orig_deliver
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        self._net = None
        self._orig_deliver = None

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- payload retention --------------------------------------------------

    def _deliver_tap(self, msg) -> None:
        orig = self._orig_deliver
        orig(msg)
        if msg.src == msg.dst:
            return
        objs = _payload_objects(msg.payload)
        if not objs:
            return
        self.deliveries_seen += 1
        self._ring.append((msg.kind, msg.src, msg.dst, tuple(objs)))
        if self.deliveries_seen % self.scan_stride:
            return
        self.deliveries_scanned += 1
        node = self._net.nodes.get(msg.dst)
        if node is None:
            return
        targets = {id(obj): obj for obj in objs}
        for hit in self._scan_node(node, targets):
            self._retention(
                msg.dst,
                f"{type(hit).__name__} from a {msg.kind!r} payload "
                f"(sent by {msg.src!r}) is still reachable from node "
                f"state after the handler returned — store a copy, "
                f"never the received object",
            )

    def final_scan(self) -> List[DetSanViolation]:
        """Whole-network sweep: any still-tagged payload object reachable
        from a node that did not send it is a retention violation."""
        if self._net is None:
            return self.violations
        targets: Dict[int, Any] = {}
        allowed: Dict[int, Set[Hashable]] = {}
        kinds: Dict[int, str] = {}
        for kind, src, _dst, objs in self._ring:
            for obj in objs:
                targets[id(obj)] = obj
                allowed.setdefault(id(obj), set()).add(src)
                kinds[id(obj)] = kind
        if not targets:
            return self.violations
        for key, node in sorted(
            self._net.nodes.items(), key=lambda kv: repr(kv[0])
        ):
            for hit in self._scan_node(node, targets):
                if key in allowed.get(id(hit), ()):
                    continue  # the sender's own object, where it belongs
                self._retention(
                    key,
                    f"{type(hit).__name__} delivered in a "
                    f"{kinds.get(id(hit), '?')!r} payload is retained in "
                    f"this node's state at shutdown — it aliases the "
                    f"sender's live object",
                )
        return self.violations

    def _scan_node(self, node, targets: Dict[int, Any]) -> List[Any]:
        """Objects from ``targets`` reachable from the node's protocol
        state (identity match), bounded by depth and a visited set."""
        roots: List[Any] = []
        ctx = getattr(node, "ctx", None)
        if ctx is not None:
            for name, value in sorted(vars(ctx).items()):
                if name not in _CTX_INFRA_ATTRS:
                    roots.append(value)
        for name in ("join", "maintenance", "failure", "levels", "dissemination"):
            service = getattr(node, name, None)
            if service is not None:
                for attr, value in sorted(
                    ((a, v) for a, v in self._service_state(service)),
                ):
                    if attr not in _SERVICE_INFRA_ATTRS:
                        roots.append(value)
        hits: List[Any] = []
        hit_ids: Set[int] = set()
        seen: Set[int] = set()
        stack: List[Tuple[Any, int]] = [(r, 0) for r in roots]
        while stack:
            obj, depth = stack.pop()
            oid = id(obj)
            if oid in seen:
                continue
            seen.add(oid)
            if oid in targets and targets[oid] is obj and oid not in hit_ids:
                hit_ids.add(oid)
                hits.append(obj)
                continue
            if depth >= self.scan_depth:
                continue
            for child in self._children(obj):
                stack.append((child, depth + 1))
        return hits

    @staticmethod
    def _service_state(service) -> List[Tuple[str, Any]]:
        try:
            return list(vars(service).items())
        except TypeError:  # pragma: no cover - slotted service
            return [
                (slot, getattr(service, slot))
                for klass in type(service).__mro__
                for slot in getattr(klass, "__slots__", ())
                if hasattr(service, slot)
            ]

    @staticmethod
    def _children(obj: Any) -> List[Any]:
        if obj is None or isinstance(obj, (str, bytes, int, float, bool)):
            return []
        if isinstance(obj, dict):
            return list(obj.keys()) + list(obj.values())
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            return list(obj)
        module = type(obj).__module__
        if module.startswith("repro.") and not module.startswith(
            _SKIP_MODULE_PREFIXES
        ):
            return _object_fields(obj)
        return []

    def _retention(self, where: Hashable, detail: str) -> None:
        self._record(DetSanViolation("payload-retained", repr(where), detail))

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
            if module.startswith("repro.") and not module.startswith(
                _EXEMPT_CALLERS
            ):
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
        if len(self.violations) >= self.max_violations:
            return
        self._seen_keys.add(key)
        self.violations.append(violation)
