"""repro.obs — deterministic observability for the PeerWindow simulator.

All of it on the simulated clock (host time is the benchmark ledger's
question: ``python3 benchmarks/ledger/run.py --trace 1``):

* :mod:`repro.obs.trace` — causal span trees over protocol operations,
  propagated across nodes via ``Message.trace`` (sim-clock timestamps,
  deterministic ids);
* :mod:`repro.obs.metrics` — per-node counter/gauge/distribution
  registry with exact network-wide aggregation;
* :mod:`repro.obs.export` — JSONL / Chrome trace_event / JSON / CSV
  writers plus the span schema validator;
* :mod:`repro.obs.stream` — the streaming telemetry bus: windowed
  incremental aggregation over the live emit paths, deterministic
  per-window frames, and the live-backend frame merge;
* :mod:`repro.obs.dashboard` — terminal rendering of telemetry frames
  (``repro watch``).

Everything is disabled by default and adds no messages, no RNG draws,
and no timing changes when enabled — sequential/parallel equivalence
and chaos replay determinism hold with observability on or off.
"""

from repro.obs.export import (
    METRICS_SCHEMA_VERSION,
    SPAN_SCHEMA_VERSION,
    prepare_output_path,
    span_from_dict,
    spans_to_chrome,
    spans_to_jsonl,
    validate_span_file,
    validate_span_lines,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    METRIC_CATALOG,
    METRIC_NAME_RE,
    Dist,
    MetricSpec,
    MetricsRegistry,
    aggregate_snapshots,
    declare_metric,
    flatten_snapshot,
    known_metric,
)
from repro.obs.stream import (
    TELEMETRY_SCHEMA_VERSION,
    NodeTap,
    SnapshotWriter,
    StreamConfig,
    StreamWindower,
    TelemetryBus,
    WindowAggregator,
    WindowBucket,
    frame_line,
    load_frames,
    load_frames_file,
    merge_node_frames,
    telemetry_header_line,
)
from repro.obs.trace import NodeObs, Observability, Span, SpanRef

__all__ = [
    "METRIC_CATALOG",
    "METRIC_NAME_RE",
    "METRICS_SCHEMA_VERSION",
    "SPAN_SCHEMA_VERSION",
    "TELEMETRY_SCHEMA_VERSION",
    "NodeTap",
    "SnapshotWriter",
    "StreamConfig",
    "StreamWindower",
    "TelemetryBus",
    "WindowAggregator",
    "WindowBucket",
    "frame_line",
    "load_frames",
    "load_frames_file",
    "merge_node_frames",
    "telemetry_header_line",
    "span_from_dict",
    "Dist",
    "MetricSpec",
    "MetricsRegistry",
    "declare_metric",
    "known_metric",
    "NodeObs",
    "Observability",
    "Span",
    "SpanRef",
    "aggregate_snapshots",
    "flatten_snapshot",
    "prepare_output_path",
    "spans_to_chrome",
    "spans_to_jsonl",
    "validate_span_file",
    "validate_span_lines",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_json",
    "write_spans_jsonl",
]
