"""Causal tracing: deterministic, sim-clock-timestamped span trees.

Every protocol operation — a join handshake, a level shift, a multicast
dissemination, a failure probe sequence and its obituary, a §4.6 refresh
— opens a :class:`Span`; cross-node causality rides a :class:`SpanRef`
in :attr:`repro.net.message.Message.trace`, so a multicast's full tree
of hops, redirects, and obituaries reconstructs as one span tree keyed
by ``trace_id``.

Determinism is the design constraint (sequential and partitioned runs of
the same seed must emit byte-identical span logs):

* span ids are ``"{node}.{n}"`` where ``n`` is a per-node counter — each
  node's event order is preserved by partitioning, so the ids match in
  every execution mode;
* timestamps are **simulated** seconds, never wall clock;
* spans are buffered per node (one :class:`NodeObs` per node, touched
  only by the node's own logical process) and merged in sorted node
  order at export time;
* tracing draws nothing from any RNG and sends no extra messages, so an
  enabled tracer cannot perturb the protocol it observes.

With ``enabled=False`` (the default everywhere) every hook is a single
attribute check; the ledger rows ``obs.disabled_guard_ns`` and
``obs.run_overhead_ratio`` (``benchmarks/ledger/``) are the measured cost.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry


class SpanRef(NamedTuple):
    """The cross-node trace context carried in ``Message.trace``.

    ``depth`` is operation-specific (multicast tree depth for ``mcast``
    hops, 0 elsewhere); it rides here because the receiver cannot
    reconstruct its own depth from a message alone.
    """

    trace_id: str
    span_id: str
    depth: int = 0


class Span:
    """One timed operation at one node.

    ``start``/``end`` are simulated seconds; ``end`` is ``None`` while
    the operation is in flight (and stays ``None`` if the run stops
    first).  ``attrs`` are small JSON-compatible scalars.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "node",
        "start", "end", "status", "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        node: Hashable,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def ref(self, depth: int = 0) -> SpanRef:
        """The context to hand a child (same trace, this span as parent)."""
        return SpanRef(self.trace_id, self.span_id, depth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.span_id} trace={self.trace_id} "
            f"t={self.start:.3f}..{self.end if self.end is not None else '?'}>"
        )


ParentLike = Union[SpanRef, Span, None]


def _parent_ids(parent: ParentLike) -> Tuple[Optional[str], Optional[str]]:
    """(trace_id, span_id) of a parent given as Span, SpanRef, or None."""
    if parent is None:
        return None, None
    if isinstance(parent, Span):
        return parent.trace_id, parent.span_id
    return parent.trace_id, parent.span_id


class NodeObs:
    """One node's observability handle: tracer buffer + metrics registry.

    All instrumentation sites hold a reference and guard on
    :attr:`enabled` — a disabled handle costs one attribute read per
    potential span.  The handle is owned by exactly one node and only
    ever touched from that node's event queue.
    """

    __slots__ = ("enabled", "node", "spans", "registry", "sink", "_n", "_open")

    def __init__(
        self,
        node: Hashable,
        enabled: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.enabled = enabled
        self.node = node
        self.spans: List[Span] = []
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=enabled)
        )
        #: Optional streaming subscriber (``repro.obs.stream``), notified
        #: on span end.  ``None`` by default; the check sits behind the
        #: ``enabled`` guard at every call site, so the disabled hot path
        #: never sees it.
        self.sink = None
        self._n = 0
        #: In-flight spans by span_id (the invariant monitor reads this
        #: to attach live trace ids to violation reports).
        self._open: Dict[str, Span] = {}

    # -- span lifecycle ----------------------------------------------------

    def start(
        self,
        name: str,
        t: float,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  With no parent the span roots a fresh trace
        whose id equals the span id."""
        self._n += 1
        span_id = f"{self.node}.{self._n}"
        trace_id, parent_id = _parent_ids(parent)
        if trace_id is None:
            trace_id = span_id
        span = Span(trace_id, span_id, parent_id, name, self.node, t, attrs or None)
        self.spans.append(span)
        self._open[span_id] = span
        return span

    def end(self, span: Span, t: float, status: str = "ok") -> None:
        span.end = t
        span.status = status
        self._open.pop(span.span_id, None)
        if self.sink is not None:
            self.sink.on_span_end(span)

    def instant(
        self,
        name: str,
        t: float,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration span (a point event that still needs a place
        in the causal tree — e.g. a redirect or an obituary)."""
        span = self.start(name, t, parent, **attrs)
        self.end(span, t)
        return span

    # -- introspection ----------------------------------------------------

    def open_spans(self) -> List[Span]:
        return list(self._open.values())

    def open_traces(self) -> List[str]:
        """Distinct trace ids with an in-flight span at this node, in
        span-creation order (deterministic)."""
        seen: Dict[str, None] = {}
        for span in self._open.values():
            seen.setdefault(span.trace_id, None)
        return list(seen)


class Observability:
    """The network-wide observability root: one :class:`NodeObs` per
    node, created through :meth:`view` as nodes are constructed.

    Views are created only between simulation runs (node construction
    happens outside ``run()`` in partitioned mode), so the views dict is
    never written while an LP runs.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._views: Dict[Hashable, NodeObs] = {}
        #: Attached telemetry bus (``repro.obs.stream.TelemetryBus``) or
        #: ``None``.  Set through :meth:`attach_bus`; new views created
        #: while a bus is attached are tapped on creation.
        self.bus = None

    def view(self, node: Hashable) -> NodeObs:
        obs = self._views.get(node)
        if obs is None:
            obs = self._views[node] = NodeObs(node, enabled=self.enabled)
            if self.bus is not None:
                self.bus.attach_node(obs)
        return obs

    def attach_bus(self, bus) -> None:
        """Subscribe ``bus`` to every current and future node view.  The
        bus only *observes* span ends and counter increments — span
        buffers and registries are untouched, so merged exports stay
        byte-identical with or without a bus attached."""
        self.bus = bus
        for key in sorted(self._views, key=str):
            bus.attach_node(self._views[key])

    def detach_bus(self) -> None:
        """Remove the attached bus and clear every per-view sink."""
        self.bus = None
        for view in self._views.values():
            view.sink = None
            view.registry.sink = None

    def views(self) -> Dict[Hashable, NodeObs]:
        return self._views

    # -- merged exports ----------------------------------------------------

    def _sorted_views(self) -> List[NodeObs]:
        return [self._views[k] for k in sorted(self._views, key=str)]

    def spans(self) -> List[Span]:
        """Every span from every node, deterministically ordered:
        by start time, ties broken by (sorted node, creation order)."""
        merged: List[Span] = []
        for view in self._sorted_views():
            merged.extend(view.spans)
        merged.sort(key=lambda s: s.start)  # stable: preserves node order
        return merged

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id (each group in global span order)."""
        groups: Dict[str, List[Span]] = {}
        for span in self.spans():
            groups.setdefault(span.trace_id, []).append(span)
        return groups

    def open_traces(self, node: Hashable) -> List[str]:
        view = self._views.get(node)
        return view.open_traces() if view is not None else []

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Aggregate every node registry into one network-wide snapshot
        (see :func:`repro.obs.metrics.aggregate_snapshots`)."""
        from repro.obs.metrics import aggregate_snapshots

        return aggregate_snapshots(
            view.registry.snapshot() for view in self._sorted_views()
        )
