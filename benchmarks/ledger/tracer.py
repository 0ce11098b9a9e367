"""Run-time tracing of the layers' public callables.

The trace is recorded from this package only: :meth:`Tracer.install`
replaces each callable in :func:`trace_points` with a timing wrapper and
:meth:`Tracer.uninstall` puts the original objects back, so nothing
under ``src/`` knows it is being measured.  Each call is one span (name,
start, end, parent — the spans form a stack, the simulator being
single-threaded); calls, inclusive time and self time are aggregated
online, and at most the first ``max_spans`` raw spans are kept in memory
to be written as Chrome ``trace_event`` JSON when the run ends.

A layer's *self* time is its span's duration minus the part covered by
wrapped callables it called; time spent in code no wrapper covers (a
timer callback, ``Transport._deliver``) therefore stays with the
enclosing span, which for a simulation is ``Simulator.step``.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span-name prefix of the per-message-kind handler spans.
HANDLE = "core.node.handle."


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        #: name -> [calls, inclusive ns, self ns]
        self.agg: Dict[str, List[int]] = {}
        #: counts taken at the same boundaries (events executed)
        self.counters: Dict[str, int] = {}
        #: [name, start ns, end ns, parent index or -1]
        self.spans: List[List[Any]] = []
        self._stack: List[List[int]] = []  # [child ns, span index]
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def traced(
        self,
        fn: Callable[..., Any],
        name: Optional[str],
        label_of: Optional[Callable[..., str]] = None,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name`` (or, when the name
        depends on the call, ``label_of(*args)``); ``observe(args,
        result)`` runs after the span closes, outside its time."""
        agg, spans, stack, cap = self.agg, self.spans, self._stack, self.max_spans

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name if label_of is None else label_of(*args)
            parent = stack[-1] if stack else None
            index = -1
            if len(spans) < cap:
                index = len(spans)
                spans.append([label, 0, 0, -1 if parent is None else parent[1]])
            frame = [0, index]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dt = t1 - t0
                row = agg.get(label)
                if row is None:
                    row = agg[label] = [0, 0, 0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                if index >= 0:
                    span = spans[index]
                    span[1] = t0
                    span[2] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, replacement in trace_points(self):
            self._installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> Dict[str, List[int]]:
        """The aggregates so far, which then start again from zero (the
        wrappers keep writing into the same dicts)."""
        taken = dict(self.agg)
        self.agg.clear()
        self.counters.clear()
        return taken

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- reading -----------------------------------------------------------

    def _sum(self, column: int, names: Iterable[str]) -> int:
        return sum(self.agg[n][column] for n in names if n in self.agg)

    def calls(self, *names: str) -> int:
        return self._sum(0, names)

    def inclusive_s(self, *names: str) -> float:
        return self._sum(1, names) / 1e9

    def self_s(self, *names: str) -> float:
        return self._sum(2, names) / 1e9

    def write_chrome(self, path: str) -> None:
        """The kept raw spans as Chrome ``trace_event`` JSON (load in
        ``chrome://tracing`` or Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "args": {"span": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)


def trace_points(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Every (owner, attribute, replacement) the tracer installs.

    Functions that other modules import by name (``seed_network``,
    ``encode_message``, ``decode_message``) are replaced in the importing
    module too, since that module's global is what its code calls.
    """
    from repro.core import protocol, seeding
    from repro.core.multicast import MulticastForwarder
    from repro.core.peerlist import PeerList
    from repro.experiments import scalable
    from repro.kernel import codec
    from repro.live import runtime as live_runtime
    from repro.net.transport import Transport
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stream import WindowAggregator
    from repro.obs.trace import NodeObs
    from repro.sim.engine import Simulator

    def method(owner: Any, attr: str, name: str, **kw: Any) -> Tuple[Any, str, Any]:
        return owner, attr, tracer.traced(owner.__dict__[attr], name, **kw)

    def shared(owners: List[Any], attr: str, name: str) -> List[Tuple[Any, str, Any]]:
        wrapper = tracer.traced(owners[0].__dict__[attr], name)
        return [(owner, attr, wrapper) for owner in owners]

    def count_event(_args: tuple, executed: bool) -> None:
        if executed:
            tracer.count("sim.engine.events", 1)

    register = Transport.__dict__["register"]

    def register_traced(self: Any, key: Any, handler: Any) -> Any:
        # The node's message handler, one span per delivery, named by kind.
        by_kind = tracer.traced(handler, None, label_of=lambda msg: HANDLE + msg.kind)
        return register(self, key, by_kind)

    points = [
        method(Simulator, "step", "sim.engine.step", observe=count_event),
        method(Simulator, "peek", "sim.engine.peek"),
        method(Simulator, "schedule_at", "sim.engine.schedule_at"),
        method(Transport, "send", "net.transport.send"),
        method(Transport, "request", "net.transport.request"),
        (Transport, "register", register_traced),
        method(MulticastForwarder, "forward", "core.multicast.forward"),
        method(PeerList, "multicast_candidates", "core.peerlist.multicast_candidates"),
        method(PeerList, "add", "core.peerlist.add"),
        method(PeerList, "remove", "core.peerlist.remove"),
        method(PeerList, "retarget", "core.peerlist.retarget"),
        method(PeerList, "ring_successor", "core.peerlist.ring_successor"),
        method(NodeObs, "start", "obs.trace.start"),
        method(NodeObs, "end", "obs.trace.end"),
        method(NodeObs, "instant", "obs.trace.instant"),
        method(MetricsRegistry, "inc", "obs.metrics.inc"),
        method(MetricsRegistry, "observe", "obs.metrics.observe"),
        method(MetricsRegistry, "set_gauge", "obs.metrics.set_gauge"),
        method(WindowAggregator, "close_window", "obs.stream.close_window"),
        method(scalable, "binomial_broadcast", "experiments.scalable.binomial_broadcast"),
        method(scalable.ScalableSim, "seed_population",
               "experiments.scalable.seed_population"),
        method(live_runtime.RealtimeRuntime, "send", "live.runtime.send"),
        method(live_runtime.RealtimeRuntime, "request", "live.runtime.request"),
    ]
    points += shared([seeding, protocol], "seed_network", "core.seeding.seed_network")
    points += shared([codec, live_runtime], "encode_message", "kernel.codec.encode")
    points += shared([codec, live_runtime], "decode_message", "kernel.codec.decode")
    return points
