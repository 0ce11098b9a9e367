"""Streaming telemetry: a subscription bus over the span/metric emit
paths plus windowed incremental aggregation.

The post-hoc pipeline (``repro.obs.analyze`` → ``repro.obs.health`` →
``repro.obs.report``) answers "what happened" after a run ends.  This
module answers "what is the network doing" *while* it runs, without
giving up the determinism contract the rest of ``repro.obs`` is built
on:

* :class:`TelemetryBus` subscribes to the existing emit paths — one
  :class:`NodeTap` per node, installed in the ``sink`` slot of that
  node's :class:`~repro.obs.trace.NodeObs` and
  :class:`~repro.obs.metrics.MetricsRegistry`.  A tap only *observes*
  span ends and counter increments — it holds the row numbers of the
  spans that ended (a batch close hands it all its rows at once), and
  when drained counts their ``(name, status)`` pairs and reads attrs
  only where the fold needs them; span stores and registries are
  untouched, so merged exports stay byte-identical with or without a
  bus attached.
  With no subscriber the hooks are a ``sink is None``
  check behind the existing ``enabled`` guard — the disabled hot path
  stays one ``if`` (ledger rows ``obs.disabled_guard_ns`` /
  ``obs.run_overhead_ratio``).
* :class:`StreamWindower` drives ``net.run`` in fixed sim-clock window
  strides and closes one :class:`frame <WindowAggregator>` per window.
  Events are bucketed by the stride that published them; both engines
  execute events at exactly ``t == boundary`` inside the stride (the
  parallel engine settles boundary deliveries at the end of ``run``),
  so sequential and ``parallel=N`` runs of the same seed assign every
  event to the same window and the snapshot JSONL is byte-identical.
* :class:`WindowAggregator` folds drained taps in sorted node order
  (ints summed, floats folded in a fixed order), derives per-window
  rates, and feeds them through an
  :class:`~repro.obs.health.EwmaHealthMonitor` so SLO breaches surface
  as events in the frames; a final frame evaluates the cumulative
  signals against the full :class:`~repro.obs.health.HealthSpec`.

Frames serialize as JSONL — a ``{"schema": "repro.telemetry"}`` header
followed by one compact sorted-key object per window — written by
:class:`SnapshotWriter` (the ``--snapshot-jsonl`` sink), loaded by
:func:`load_frames` (skip-and-count tolerant of truncated tails, like
the span loader), and merged across live node processes by
:func:`merge_node_frames` with the same sorted-address ordering rules
as the swarm span merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    IO,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.analyze import SchemaError
from repro.obs.export import prepare_output_path
from repro.obs.health import (
    EwmaHealthMonitor,
    HealthSpec,
    evaluate,
    metrics_signals,
)
from repro.obs.trace import NodeObs, SpanFacts, SpanTally

TELEMETRY_SCHEMA = "repro.telemetry"
TELEMETRY_SCHEMA_VERSION = 1

#: Span names folded into the multicast tree statistics.
_MCAST_SPAN_NAMES = ("mcast.root", "mcast.hop")
_PROBE_SPAN_NAMES = ("probe", "probe.verify")


def telemetry_header_line() -> str:
    """The schema header line of a telemetry frame JSONL file."""
    return json.dumps(
        {"schema": TELEMETRY_SCHEMA, "schema_version": TELEMETRY_SCHEMA_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


def frame_line(frame: Dict[str, Any]) -> str:
    """One frame as a compact, sorted-key JSON line (deterministic)."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":"))


# -- the bus ----------------------------------------------------------------


class NodeTap:
    """Per-node subscriber buffer.

    Installed in the ``sink`` slot of one node's :class:`NodeObs` and
    :class:`MetricsRegistry`; only ever written from that node's own
    event queue (same ownership argument as the span store).  It records
    the *row* of each span that ends and tallies the rows from the
    store when drained between simulation strides.
    """

    __slots__ = ("obs", "rows", "counts")

    def __init__(self, obs: NodeObs):
        self.obs = obs
        self.rows: List[int] = []
        self.counts: Dict[str, float] = {}

    # Emit-path callbacks (hot when a bus is attached; see module doc).

    def on_span_end(self, row: int) -> None:
        self.rows.append(row)

    def on_spans_end(self, rows: List[int]) -> None:
        self.rows.extend(rows)

    def on_inc(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def drain(self) -> Tuple[SpanTally, Dict[str, float]]:
        """Take and reset the ended spans' tally and counter deltas."""
        rows, self.rows = self.rows, []
        counts, self.counts = self.counts, {}
        return self.obs.tally(rows, attrs_of=WindowBucket.ATTR_SPAN_NAMES), counts


class TelemetryBus:
    """One :class:`NodeTap` per node view of an
    :class:`~repro.obs.trace.Observability`.

    Attach with :meth:`repro.obs.trace.Observability.attach_bus`; views
    created afterwards are tapped on creation.
    """

    def __init__(self) -> None:
        self.taps: Dict[Hashable, NodeTap] = {}

    def attach_node(self, obs: NodeObs) -> None:
        tap = self.taps.get(obs.node)
        if tap is None:
            tap = self.taps[obs.node] = NodeTap(obs)
        obs.sink = tap
        obs.registry.sink = tap

    def drain(self) -> List[Tuple[Hashable, SpanTally, Dict[str, float]]]:
        """Drain every tap in sorted node order (the export order of
        :meth:`Observability.spans` — determinism depends on it)."""
        out = []
        for key in sorted(self.taps, key=str):
            spans, counts = self.taps[key].drain()
            out.append((key, spans, counts))
        return out


# -- window folding ---------------------------------------------------------


class WindowBucket:
    """The integer/float facts of one window, foldable across nodes.

    Built from drained :class:`NodeTap` buffers (sim and live node), from
    per-node frame dicts (live merge) or from a replayed span log — all
    fold in sorted node order.  A span folds as its name, status and
    attrs, never as a :class:`~repro.obs.trace.Span` or a store row.
    """

    #: The only spans whose attrs the fold reads (their tree ``depth``).
    ATTR_SPAN_NAMES = _MCAST_SPAN_NAMES

    __slots__ = (
        "taps", "spans", "span_counts", "status_counts", "counters",
        "mcast_spans", "mcast_redirects", "mcast_max_depth", "mcast_died",
        "join_ok", "join_failed", "probes", "probe_timeouts", "obituaries",
    )

    def __init__(self) -> None:
        self.taps = 0
        self.spans = 0
        self.span_counts: Dict[str, int] = {}
        self.status_counts: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.mcast_spans = 0
        self.mcast_redirects = 0
        self.mcast_max_depth = 0
        self.mcast_died = 0
        self.join_ok = 0
        self.join_failed = 0
        self.probes = 0
        self.probe_timeouts = 0
        self.obituaries = 0

    def add_span(self, name: str, status: str, attrs: Mapping[str, Any]) -> None:
        """Fold one ended span, given by its name, status and attrs — a
        replayed :class:`~repro.obs.trace.Span` is a count of 1."""
        self._count(name, status, 1)
        if name in _MCAST_SPAN_NAMES:
            self._read_attrs(attrs)

    def add_tally(self, tally: SpanTally) -> None:
        """Fold a drained tap's ended spans."""
        for (name, status), count in tally.pairs.items():
            self._count(name, status, count)
        for _name, _status, attrs in tally.attrs:
            self._read_attrs(attrs)

    def _count(self, name: str, status: str, count: int) -> None:
        self.spans += count
        self.span_counts[name] = self.span_counts.get(name, 0) + count
        self.status_counts[status] = self.status_counts.get(status, 0) + count
        if name in _MCAST_SPAN_NAMES:
            self.mcast_spans += count
            if status == "died":
                self.mcast_died += count
        elif name == "mcast.redirect":
            self.mcast_redirects += count
        elif name == "join":
            if status == "ok":
                self.join_ok += count
            else:
                self.join_failed += count
        elif name in _PROBE_SPAN_NAMES:
            self.probes += count
            if status == "timeout":
                self.probe_timeouts += count
        elif name == "obituary":
            self.obituaries += count

    def _read_attrs(self, attrs: Mapping[str, Any]) -> None:
        """The one attr the fold reads: a multicast span's tree depth."""
        depth = attrs.get("depth")
        if isinstance(depth, int) and depth > self.mcast_max_depth:
            self.mcast_max_depth = depth

    def add_node(
        self, spans: Union[SpanTally, Sequence[SpanFacts]], counts: Dict[str, float]
    ) -> None:
        """Fold one node's ended spans — a drained tap's tally, or facts
        one span each — and counter deltas (call in sorted node order)."""
        if isinstance(spans, SpanTally):
            if spans.pairs or counts:
                self.taps += 1
            self.add_tally(spans)
        else:
            if spans or counts:
                self.taps += 1
            for name, status, attrs in spans:
                self.add_span(name, status, attrs)
        for name in sorted(counts):
            self.counters[name] = self.counters.get(name, 0) + counts[name]

    def add_frame(self, frame: Dict[str, Any]) -> None:
        """Fold one per-node frame dict (the live merge path; call in
        sorted node-address order)."""
        self.taps += int(frame.get("taps", 0))
        self.spans += int(frame.get("spans", 0))
        for field, into in (
            ("span_counts", self.span_counts),
            ("status_counts", self.status_counts),
        ):
            for name, count in sorted(frame.get(field, {}).items()):
                into[name] = into.get(name, 0) + int(count)
        for name, value in sorted(frame.get("counters", {}).items()):
            self.counters[name] = self.counters.get(name, 0) + value
        mcast = frame.get("mcast", {})
        self.mcast_spans += int(mcast.get("spans", 0))
        self.mcast_redirects += int(mcast.get("redirects", 0))
        self.mcast_max_depth = max(
            self.mcast_max_depth, int(mcast.get("max_depth", 0))
        )
        self.mcast_died += int(mcast.get("died", 0))
        join = frame.get("join", {})
        self.join_ok += int(join.get("ok", 0))
        self.join_failed += int(join.get("failed", 0))
        probe = frame.get("probe", {})
        self.probes += int(probe.get("count", 0))
        self.probe_timeouts += int(probe.get("timeouts", 0))
        self.obituaries += int(frame.get("obituaries", 0))

    def fold_into(self, other: "WindowBucket") -> None:
        """Accumulate this window into a cumulative bucket."""
        other.spans += self.spans
        for name, count in sorted(self.span_counts.items()):
            other.span_counts[name] = other.span_counts.get(name, 0) + count
        for name, count in sorted(self.status_counts.items()):
            other.status_counts[name] = other.status_counts.get(name, 0) + count
        for name, value in sorted(self.counters.items()):
            other.counters[name] = other.counters.get(name, 0) + value
        other.mcast_spans += self.mcast_spans
        other.mcast_redirects += self.mcast_redirects
        other.mcast_max_depth = max(other.mcast_max_depth, self.mcast_max_depth)
        other.mcast_died += self.mcast_died
        other.join_ok += self.join_ok
        other.join_failed += self.join_failed
        other.probes += self.probes
        other.probe_timeouts += self.probe_timeouts
        other.obituaries += self.obituaries

    def rate_signals(self) -> Dict[str, float]:
        """Window-derived health signals.  A rate is only emitted when
        its denominator is non-zero — :func:`repro.obs.health.evaluate`
        skips SLOs whose signal is absent, so an idle window is not
        judged on activity it did not have."""
        signals: Dict[str, float] = {}
        joins = self.join_ok + self.join_failed
        if joins:
            signals["join.failure_rate"] = self.join_failed / joins
        if self.probes:
            signals["probe.timeout_rate"] = self.probe_timeouts / self.probes
        if self.mcast_spans:
            signals["mcast.redirect_rate"] = self.mcast_redirects / self.mcast_spans
            signals["mcast.max_depth"] = float(self.mcast_max_depth)
            signals["mcast.death_rate"] = self.mcast_died / self.mcast_spans
        return signals


# -- the aggregator ---------------------------------------------------------


class WindowAggregator:
    """Fold window buckets into frames; keep cumulative totals and run
    the EWMA band monitor over the per-window signals.

    The frame schema is stable across every producer (sim windower,
    live node sidecar, live merge): ``window``/``t0``/``t1``/``final``,
    the raw bucket facts, derived ``signals``, EWMA ``breaches``, the
    optional oracle ``state`` sample, and a per-frame ``healthy`` flag
    (no breach this window; on the final frame, the full-spec verdict).
    """

    def __init__(self, spec: Optional[HealthSpec] = None):
        self.spec = spec
        self.monitor = EwmaHealthMonitor(spec) if spec is not None else None
        self.cumulative = WindowBucket()
        self.windows_closed = 0

    def _frame(
        self,
        index: int,
        t0: float,
        t1: float,
        bucket: WindowBucket,
        signals: Dict[str, float],
        breaches: List[Dict[str, Any]],
        verdicts: List[Dict[str, Any]],
        healthy: bool,
        final: bool,
        state: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        return {
            "window": index,
            "t0": t0,
            "t1": t1,
            "final": final,
            "taps": bucket.taps,
            "spans": bucket.spans,
            "span_counts": {k: bucket.span_counts[k]
                            for k in sorted(bucket.span_counts)},
            "status_counts": {k: bucket.status_counts[k]
                              for k in sorted(bucket.status_counts)},
            "counters": {k: bucket.counters[k]
                         for k in sorted(bucket.counters)},
            "mcast": {
                "spans": bucket.mcast_spans,
                "redirects": bucket.mcast_redirects,
                "max_depth": bucket.mcast_max_depth,
                "died": bucket.mcast_died,
            },
            "join": {"ok": bucket.join_ok, "failed": bucket.join_failed},
            "probe": {"count": bucket.probes, "timeouts": bucket.probe_timeouts},
            "obituaries": bucket.obituaries,
            "signals": {k: signals[k] for k in sorted(signals)},
            "breaches": breaches,
            "verdicts": verdicts,
            "healthy": healthy,
            "state": state,
        }

    def close_window(
        self,
        index: int,
        t0: float,
        t1: float,
        bucket: WindowBucket,
        state: Optional[Dict[str, Any]] = None,
        extra_signals: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """Close one window: derive its signals, run the EWMA monitor,
        fold the bucket into the cumulative totals, return the frame."""
        signals = bucket.rate_signals()
        if extra_signals:
            signals.update(extra_signals)
        breaches: List[Dict[str, Any]] = []
        if self.monitor is not None:
            for verdict in self.monitor.observe(signals, now=t1):
                if not verdict.ok:
                    breaches.append(verdict.to_dict())
        bucket.fold_into(self.cumulative)
        self.windows_closed += 1
        return self._frame(
            index, t0, t1, bucket, signals, breaches,
            verdicts=[], healthy=not breaches, final=False, state=state,
        )

    def final_frame(
        self,
        index: int,
        t0: float,
        t1: float,
        bucket: Optional[WindowBucket] = None,
        state: Optional[Dict[str, Any]] = None,
        extra_signals: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """The closing frame: any leftover partial-window bucket folds
        into the cumulative totals, whose signals are evaluated against
        the *full* spec (plain :func:`evaluate`, no EWMA smoothing) —
        the same judgment ``repro obs health`` renders post hoc."""
        if bucket is not None:
            bucket.fold_into(self.cumulative)
        signals = self.cumulative.rate_signals()
        if extra_signals:
            signals.update(extra_signals)
        verdicts: List[Dict[str, Any]] = []
        breaches: List[Dict[str, Any]] = []
        healthy = True
        if self.spec is not None:
            for verdict in evaluate(self.spec, signals, now=t1):
                verdicts.append(verdict.to_dict())
                if not verdict.ok:
                    breaches.append(verdict.to_dict())
                    healthy = False
        return self._frame(
            index, t0, t1, self.cumulative, signals, breaches,
            verdicts=verdicts, healthy=healthy, final=True, state=state,
        )


# -- sinks ------------------------------------------------------------------


class SnapshotWriter:
    """The ``--snapshot-jsonl`` sink: schema header plus one compact
    frame line per window, flushed per frame so a dashboard (or a test)
    can tail the file while the producer is still running."""

    def __init__(self, path: str):
        self.path = path
        prepare_output_path(path, "telemetry frame JSONL")
        self._fh: Optional[IO[str]] = open(path, "w")
        self._fh.write(telemetry_header_line() + "\n")
        self._fh.flush()

    def write(self, frame: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"snapshot writer for {self.path} is closed")
        self._fh.write(frame_line(frame) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# -- loading + merging ------------------------------------------------------


def load_frames(lines: Sequence[str]) -> Tuple[List[Dict[str, Any]], int, int]:
    """Parse telemetry frame lines into ``(frames, schema_version,
    skipped)``.

    Malformed or truncated lines — a node killed mid-write leaves a
    partial tail — are skipped and counted, mirroring the span loader's
    contract; so is a frame whose ``window`` is not an int or whose
    ``t1`` is not a number, which the merge and the renderers index and
    compare without looking again.  A header whose schema version is
    *newer*, or not an int at all, still raises :class:`SchemaError`:
    silently misreading frames from a future writer is worse than
    refusing."""
    frames: List[Dict[str, Any]] = []
    version = TELEMETRY_SCHEMA_VERSION
    skipped = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(obj, dict):
            skipped += 1
            continue
        if obj.get("schema") == TELEMETRY_SCHEMA and "window" not in obj:
            declared = obj.get("schema_version", 0)
            if not isinstance(declared, int) or declared > TELEMETRY_SCHEMA_VERSION:
                raise SchemaError(
                    f"telemetry schema_version {declared!r} is not a version "
                    f"this build reads (<= {TELEMETRY_SCHEMA_VERSION})"
                )
            version = declared
            continue
        if not isinstance(obj.get("window"), int) or not isinstance(
            obj.get("t1"), (int, float)
        ):
            skipped += 1
            continue
        frames.append(obj)
    return frames, version, skipped


def load_frames_file(path: str) -> Tuple[List[Dict[str, Any]], int, int]:
    with open(path) as fh:
        return load_frames(fh.readlines())


def merge_node_frames(
    per_node: Sequence[Tuple[str, Sequence[Dict[str, Any]]]],
    spec: Optional[HealthSpec] = None,
) -> List[Dict[str, Any]]:
    """Merge per-node frame streams (the live backend) into one merged
    stream plus a cumulative final frame.

    Ordering rules match the swarm span merge: nodes fold in sorted
    address order within each window index, windows emit in index
    order.  The EWMA monitor then runs over the merged window sequence,
    so breach events reflect the *network*, not any single node."""
    ordered = sorted(per_node, key=lambda pair: str(pair[0]))
    by_window: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
    for address, frames in ordered:
        for frame in frames:
            if frame.get("final"):
                continue
            by_window.setdefault(int(frame["window"]), []).append((address, frame))
    agg = WindowAggregator(spec=spec)
    merged: List[Dict[str, Any]] = []
    last_t1 = 0.0
    for index in sorted(by_window):
        bucket = WindowBucket()
        t0s: List[float] = []
        t1s: List[float] = []
        for _, frame in by_window[index]:
            bucket.add_frame(frame)
            t0s.append(float(frame["t0"]))
            t1s.append(float(frame["t1"]))
        t0, t1 = min(t0s), max(t1s)
        last_t1 = max(last_t1, t1)
        merged.append(agg.close_window(index, t0, t1, bucket))
    final_index = (max(by_window) + 1) if by_window else 0
    merged.append(agg.final_frame(final_index, last_t1, last_t1))
    return merged


# -- the sim-side windower --------------------------------------------------


class StreamWindower:
    """Drive a :class:`~repro.core.protocol.PeerWindowNetwork` in fixed
    window strides and emit one frame per window.

    Call :meth:`run` wherever the un-streamed code called
    ``net.run(until=...)`` — the window grid stays anchored at the
    construction-time sim clock regardless of the caller's stride
    pattern, so a given seed produces the same frames no matter how the
    driver slices its ``run`` calls.  Call :meth:`finish` once at the
    end of the run to flush the final cumulative frame and close sinks.
    """

    def __init__(
        self,
        net: Any,
        window: float = 15.0,
        spec: Optional[HealthSpec] = None,
        sinks: Sequence[Any] = (),
        renderer: Optional[Any] = None,
    ):
        if window <= 0:
            raise ValueError("stream window must be > 0")
        if not net.obs.enabled:
            raise ValueError(
                "streaming telemetry needs observability=True on the network"
            )
        self.net = net
        self.window = float(window)
        self.bus = TelemetryBus()
        net.obs.attach_bus(self.bus)
        self.agg = WindowAggregator(spec=spec)
        self.sinks = list(sinks)
        self.renderer = renderer
        self.origin = float(net.now)
        self.index = 0
        self.frames_emitted = 0
        self._finished = False

    def _boundary(self, index: int) -> float:
        return self.origin + (index + 1) * self.window

    def run(self, until: float) -> float:
        """Advance the network to ``until``, closing every window whose
        boundary falls within the stride."""
        until = float(until)
        while self._boundary(self.index) <= until:
            boundary = self._boundary(self.index)
            self.net.run(until=boundary)
            self._close(boundary, self.agg.close_window)
            self.index += 1
        if until > self.net.now:
            self.net.run(until=until)
        return float(self.net.now)

    def finish(self) -> Dict[str, Any]:
        """Emit the final cumulative frame and close every sink."""
        if self._finished:
            raise ValueError("stream windower already finished")
        self._finished = True
        frame = self._close(float(self.net.now), self.agg.final_frame)
        for sink in self.sinks:
            sink.close()
        return frame

    def _close(self, t1: float, fold: Callable[..., Dict[str, Any]]) -> Dict[str, Any]:
        """Fold the drained taps into a frame ending at ``t1`` (``fold``
        is the aggregator's ``close_window`` or ``final_frame``) and emit
        it.  Beside the bucket go the oracle ``state`` and the cumulative
        snapshot signals — ack-retry rate and bandwidth model ratio come
        from the registry snapshot and transport counters, which the bus
        cannot see incrementally.  The oracle error rate is measured once
        and reaches ``peerlist.error_rate`` through
        :func:`metrics_signals`' ``meta``, as it does post hoc."""
        bucket = WindowBucket()
        for _, spans, counts in self.bus.drain():
            bucket.add_node(spans, counts)
        net = self.net
        error_rate = float(net.mean_error_rate())
        state = {
            "live_nodes": len(net.live_nodes()),
            "levels": {str(k): int(v) for k, v in net.level_histogram().items()},
            "mean_error_rate": error_rate,
        }
        signals = metrics_signals(
            net.metrics_snapshot(), net.config, meta={"mean_error_rate": error_rate}
        )
        t0 = self.origin + self.index * self.window
        frame = fold(self.index, t0, t1, bucket, state=state, extra_signals=signals)
        for sink in self.sinks:
            sink.write(frame)
        if self.renderer is not None:
            self.renderer.render(frame)
        self.frames_emitted += 1
        return frame


@dataclass
class StreamConfig:
    """Declarative streaming options carried from CLI flags into run
    harnesses (:class:`repro.chaos.runner.ChaosRunner`, ``repro obs
    run``); :meth:`build` wires the windower once the network exists,
    ahead of the snapshot file any ``sinks`` of the caller's own."""

    window: float = 15.0
    spec: Optional[HealthSpec] = None
    snapshot_path: Optional[str] = None
    render: bool = False

    def build(self, net: Any, sinks: Sequence[Any] = ()) -> StreamWindower:
        if self.snapshot_path:
            sinks = [*sinks, SnapshotWriter(self.snapshot_path)]
        renderer = None
        if self.render:
            from repro.obs.dashboard import TerminalDashboard

            renderer = TerminalDashboard()
        return StreamWindower(
            net, window=self.window, spec=self.spec, sinks=sinks, renderer=renderer,
        )
