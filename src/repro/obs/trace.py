"""Causal tracing: deterministic, sim-clock-timestamped span trees.

Every protocol operation — a join handshake, a level shift, a multicast
dissemination, a failure probe sequence and its obituary, a §4.6 refresh
— opens a span; cross-node causality rides a :class:`SpanRef`
in :attr:`repro.net.message.Message.trace`, so a multicast's full tree
of hops, redirects, and obituaries reconstructs as one span tree keyed
by ``trace_id``.

Determinism is the design constraint (sequential and partitioned runs of
the same seed must emit byte-identical span logs):

* span ids are ``"{node}.{n}"`` where ``n`` is the span's 1-based row in
  its node's store — each node's event order is preserved by
  partitioning, so the ids match in every execution mode;
* timestamps are **simulated** seconds, never wall clock;
* spans are buffered per node (one :class:`NodeObs` per node, touched
  only by the node's own logical process) and merged in sorted node
  order at export time;
* tracing draws nothing from any RNG and sends no extra messages, so an
  enabled tracer cannot perturb the protocol it observes.

A retained span is a *row*, not an object: :class:`NodeObs` keeps one
column per field (name, start, end, status, parent id, trace id, attr
keys, attr values), so a closed span costs a few machine words and no
object the cyclic collector tracks; a span id is derived from the node
and the row number.  :meth:`NodeObs.start` returns an :class:`OpenSpan`,
a transient handle that carries the attrs its producer may still add
until :meth:`NodeObs.end` freezes them into the row.  A producer that
opens many alike spans at one instant (a detector tick's probes) opens
them as contiguous rows with :meth:`NodeObs.open_rows` and closes them
with :meth:`NodeObs.close_rows` — no handle, no attrs dict, one sink
notification per batch.  :class:`Span` stays the value every consumer
receives: :attr:`NodeObs.spans` and :meth:`Observability.spans` build
them on demand.

With ``enabled=False`` (the default everywhere) every hook is a single
attribute check and the view holds no columns; the ledger rows
``obs.disabled_guard_ns`` and ``obs.run_overhead_ratio``
(``benchmarks/ledger/``) are the measured cost.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import repeat
from typing import (
    Any,
    Container,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import metrics as m
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
    """One timed operation at one node — the value every consumer of a
    span log receives (built from a :class:`NodeObs` row, or loaded).

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


class OpenSpan:
    """What :meth:`NodeObs.start` returns: a transient handle on one row.

    It carries the attrs its producer may still add until
    :meth:`NodeObs.end` freezes them into the row (later writes are not
    recorded), and derives the ids a child hangs under from the row, so
    ``ref()`` keeps working after the end (an obituary hangs under its
    ended probe).  The store keeps no reference to it.
    """

    __slots__ = ("obs", "row", "attrs")

    def __init__(self, obs: "NodeObs", row: int, attrs: Dict[str, Any]):
        self.obs = obs
        self.row = row
        self.attrs = attrs

    @property
    def span_id(self) -> str:
        return f"{self.obs.node}.{self.row + 1}"

    @property
    def trace_id(self) -> str:
        trace_id = self.obs._traces[self.row]
        return self.span_id if trace_id is None else trace_id

    def ref(self, depth: int = 0) -> SpanRef:
        """The context to hand a child (same trace, this span as parent)."""
        span_id = self.span_id
        trace_id = self.obs._traces[self.row]
        return SpanRef(span_id if trace_id is None else trace_id, span_id, depth)


ParentLike = Union[SpanRef, Span, OpenSpan, None]

#: The end column's value while a span is in flight (no sim time is NaN).
_IN_FLIGHT = float("nan")

#: ``(name, status, attrs)`` of one ended span — what a fold reads.
SpanFacts = Tuple[str, str, Mapping[str, Any]]


class SpanTally(NamedTuple):
    """A batch of ended spans as a window fold reads them: how many
    ended with each ``(name, status)`` pair, and the facts of those
    whose attrs the fold reads, in row order."""

    pairs: Dict[Tuple[str, str], int]
    attrs: List[SpanFacts]


class NodeObs:
    """One node's observability handle: span store + metrics registry.

    All instrumentation sites hold a reference and guard on
    :attr:`enabled` — a disabled handle costs one attribute read per
    potential span and holds the empty tuple in every column.  The
    handle is owned by exactly one node and only ever touched from that
    node's event queue.

    Row ``r`` is the span ``"{node}.{r + 1}"``.  The trace column holds
    ``None`` for a span that roots its own trace (its trace id is its
    span id).  A span is in flight while its end column holds NaN.
    While a span :meth:`start` opened is in flight its key column holds
    ``None`` and its value column the producer's live attrs dict; its
    end replaces them with an interned key tuple and a value tuple.  A
    row :meth:`open_rows` opened holds its key and value tuples from
    the open.
    """

    __slots__ = (
        "enabled", "node", "registry", "sink",
        "_names", "_starts", "_ends", "_statuses", "_parents", "_traces",
        "_keys", "_values", "_key_tuples",
    )

    def __init__(
        self,
        node: Hashable,
        enabled: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.enabled = enabled
        self.node = node
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=enabled)
        )
        #: Optional streaming subscriber (``repro.obs.stream``), notified
        #: with the row of each span that ends.  ``None`` by default; the
        #: check sits behind the ``enabled`` guard at every call site, so
        #: the disabled hot path never sees it.
        self.sink = None
        if not enabled:
            self._names = self._starts = self._ends = self._statuses = ()
            self._parents = self._traces = self._keys = self._values = ()
            self._key_tuples = ()
            return
        self._names: List[str] = []
        self._starts = array("d")
        self._ends = array("d")
        self._statuses: List[str] = []
        self._parents: List[Optional[str]] = []
        self._traces: List[Optional[str]] = []
        self._keys: List[Optional[Tuple[str, ...]]] = []
        self._values: List[Any] = []
        #: Attr-key tuples, interned: the rows of one call site share one.
        self._key_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- span lifecycle ----------------------------------------------------

    def start(
        self,
        name: str,
        t: float,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> OpenSpan:
        """Open a span.  With no parent the span roots a fresh trace
        whose id equals the span id."""
        row = len(self._names)
        self._names.append(name)
        self._starts.append(t)
        self._ends.append(_IN_FLIGHT)
        self._statuses.append("ok")
        if parent is None:
            self._parents.append(None)
            self._traces.append(None)
        else:
            self._parents.append(parent.span_id)
            self._traces.append(parent.trace_id)
        self._keys.append(None)
        self._values.append(attrs)
        return OpenSpan(self, row, attrs)

    def end(self, span: OpenSpan, t: float, status: str = "ok") -> None:
        """Close ``span`` at ``t``, freezing its attrs into its row.  Only
        the first end counts: ending a span that is no longer in flight
        changes nothing and notifies no sink."""
        row = span.row
        ended = self._ends[row]
        if ended == ended:  # not NaN: no longer in flight
            return
        self._ends[row] = t
        self._statuses[row] = status
        self._freeze(row, span.attrs)
        if self.sink is not None:
            self.sink.on_span_end(row)

    def _freeze(self, row: int, attrs: Mapping[str, Any]) -> None:
        keys = tuple(attrs)
        self._keys[row] = self._key_tuples.setdefault(keys, keys)
        self._values[row] = tuple(attrs.values())

    def open_rows(self, name: str, t: float, key: str, values: Sequence[Any]) -> range:
        """Open one trace-rooting span per item of ``values`` as
        contiguous rows, all named ``name`` at ``t``, each with the one
        attr ``{key: value}``, frozen at the open; returns their rows in
        order.  Close them with :meth:`close_rows`, or end one alone
        through :meth:`handle`."""
        first, k = len(self._names), len(values)
        self._names.extend(repeat(name, k))
        self._starts.extend(repeat(t, k))
        self._ends.extend(repeat(_IN_FLIGHT, k))
        self._statuses.extend(repeat("ok", k))
        self._parents.extend(repeat(None, k))
        self._traces.extend(repeat(None, k))
        keys = (key,)
        self._keys.extend(repeat(self._key_tuples.setdefault(keys, keys), k))
        self._values.extend(zip(values))
        return range(first, first + k)

    def close_rows(self, rows: Iterable[int], t: float, status: str = "ok") -> None:
        """:meth:`end` every span of ``rows`` at ``t``, with one sink
        notification for the batch.  First end wins here too: a row no
        longer in flight keeps its end and is not notified again."""
        ends, statuses, keys, values = self._ends, self._statuses, self._keys, self._values
        closed: List[int] = []
        for row in rows:
            ended = ends[row]
            if ended == ended:
                continue
            ends[row] = t
            statuses[row] = status
            if keys[row] is None:  # opened by start(): its attrs are live
                self._freeze(row, values[row])
            closed.append(row)
        if closed and self.sink is not None:
            self.sink.on_spans_end(closed)

    def handle(self, row: int) -> OpenSpan:
        """An :class:`OpenSpan` on a row :meth:`open_rows` opened, for a
        producer that ends it alone or hangs a child under it."""
        return OpenSpan(self, row, dict(zip(self._keys[row], self._values[row])))

    def instant(
        self,
        name: str,
        t: float,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> OpenSpan:
        """A zero-duration span (a point event that still needs a place
        in the causal tree — e.g. a redirect or an obituary)."""
        span = self.start(name, t, parent, **attrs)
        self.end(span, t)
        return span

    # -- reading the store -------------------------------------------------

    def span_count(self) -> int:
        return len(self._names)

    @property
    def spans(self) -> List[Span]:
        """Every span of this node, in creation order, built on demand."""
        return self._build(range(len(self._names)))

    def linked_spans(self, root_name: str) -> List[Span]:
        """The spans that can sit in a tree rooted at a ``root_name``
        span: those with a parent, plus every ``root_name`` span.  Only
        these are built — a few per cent of a probe-heavy log."""
        parents, names = self._parents, self._names
        return self._build(
            row for row in range(len(names))
            if parents[row] is not None or names[row] == root_name
        )

    def _build(self, rows: Iterable[int]) -> List[Span]:
        node, names, starts, ends = self.node, self._names, self._starts, self._ends
        statuses, parents, traces = self._statuses, self._parents, self._traces
        keys, values = self._keys, self._values
        out: List[Span] = []
        for row in rows:
            span_id = f"{node}.{row + 1}"
            trace_id, row_keys = traces[row], keys[row]
            span = Span(
                span_id if trace_id is None else trace_id, span_id,
                parents[row], names[row], node, starts[row],
                # start() opened it and it is in flight: the live attrs dict.
                dict(values[row]) if row_keys is None
                else dict(zip(row_keys, values[row])),
            )
            end = ends[row]
            if end == end:  # in flight (NaN): end stays None
                span.end = end
                span.status = statuses[row]
            out.append(span)
        return out

    def tally(self, rows: Sequence[int], attrs_of: Container[str]) -> SpanTally:
        """The :class:`SpanTally` of ``rows`` (ended spans) — what a
        telemetry fold reads, without building a :class:`Span`.  The
        pairs are counted in C; attrs are built only for spans named in
        ``attrs_of``."""
        names, statuses, keys, values = (
            self._names, self._statuses, self._keys, self._values
        )
        pairs = Counter(zip(map(names.__getitem__, rows), map(statuses.__getitem__, rows)))
        attrs: List[SpanFacts] = []
        if any(name in attrs_of for name, _ in pairs):
            attrs = [
                (names[row], statuses[row], dict(zip(keys[row], values[row])))
                for row in rows if names[row] in attrs_of
            ]
        return SpanTally(dict(pairs), attrs)

    def open_traces(self) -> List[str]:
        """Distinct trace ids with an in-flight span at this node, in
        span-creation order (deterministic)."""
        seen: Dict[str, None] = {}
        traces = self._traces
        for row, end in enumerate(self._ends):
            if end != end:  # NaN: in flight
                trace_id = traces[row]
                seen.setdefault(
                    f"{self.node}.{row + 1}" if trace_id is None else trace_id, None
                )
        return list(seen)


def _merged(per_node: Iterable[List[Span]]) -> List[Span]:
    merged: List[Span] = []
    for spans in per_node:
        merged.extend(spans)
    merged.sort(key=lambda s: s.start)  # stable: preserves node order
    return merged


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
        return _merged(view.spans for view in self._sorted_views())

    def linked_spans(self, root_name: str) -> List[Span]:
        """:meth:`NodeObs.linked_spans` of every node, in :meth:`spans`
        order."""
        return _merged(view.linked_spans(root_name) for view in self._sorted_views())

    def span_count(self) -> int:
        return sum(view.span_count() for view in self._views.values())

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
        return m.aggregate_snapshots(
            view.registry.snapshot() for view in self._sorted_views()
        )

    def network_snapshot(
        self,
        live: Iterable[Tuple[MetricsRegistry, int, float]],
        msgs_by_kind: Dict[str, int],
        bits_by_kind: Dict[str, float],
    ) -> Dict[str, Any]:
        """:meth:`metrics_snapshot` with the sampled gauges refreshed from
        ``live`` — one ``(registry, level, peer-list size)`` per live node —
        and the transport's message / bit counters injected per kind: the
        one snapshot a network hands the cost-model comparison."""
        if self.enabled:
            # Clear previous samples everywhere (departed nodes included):
            # a node that changed level — or left — since the last snapshot
            # must not keep contributing stale gauges to the aggregate.
            sampled = (m.PEERS_SIZE_LEVEL + ".", m.NODES_LEVEL + ".")
            for view in self._views.values():
                view.registry.gauges = {
                    k: v for k, v in view.registry.gauges.items()
                    if not k.startswith(sampled)
                }
            for registry, level, peers in live:
                registry.set_gauge(f"{m.PEERS_SIZE_LEVEL}.{level}", peers)
                registry.set_gauge(f"{m.NODES_LEVEL}.{level}", 1)
        return m.add_transport_counters(
            self.metrics_snapshot(), msgs_by_kind, bits_by_kind
        )
