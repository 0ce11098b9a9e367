"""Exporters: span JSONL, Chrome ``trace_event``, metrics JSON/CSV.

All writers are dependency-free and route their paths through
:func:`prepare_output_path`, which creates missing parent directories
and converts unwritable destinations into a clear :class:`OSError`
instead of a raw ``FileNotFoundError`` deep in ``open``.

The JSONL span format is one object per line with the fields listed in
``SPAN_REQUIRED_FIELDS``; :func:`validate_span_lines` is the schema
check used by the test suite and the ``scripts/check.sh`` smoke step.

Versioning: :func:`write_spans_jsonl` stamps a header line — a JSON
object carrying ``schema_version`` (and no ``span_id``) — before the
span records, and :func:`write_metrics_json` stamps ``schema_version``
into the snapshot document.  Loaders (``repro.obs.analyze``) treat a
headerless file as version 0 and upconvert; anything newer than the
versions declared here is rejected with a clear error rather than
silently misread.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List

from repro.obs.trace import Span
from repro.paths import prepare_output_path

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "SPAN_REQUIRED_FIELDS",
    "SPAN_SCHEMA_VERSION",
    "prepare_output_path",
    "span_from_dict",
    "span_header_line",
    "span_to_dict",
    "spans_to_chrome",
    "spans_to_jsonl",
    "validate_span_file",
    "validate_span_lines",
    "write_chrome_trace",
    "write_metrics_csv",
    "write_metrics_json",
    "write_spans_jsonl",
]

#: Version of the span JSONL format written by :func:`write_spans_jsonl`.
#: Bump on any breaking change to ``SPAN_REQUIRED_FIELDS`` or the
#: header; version 0 means "headerless PR 3 export".
SPAN_SCHEMA_VERSION = 1

#: Version of the metrics JSON snapshot document.
METRICS_SCHEMA_VERSION = 1

#: Field -> allowed JSON types for one exported span object.
SPAN_REQUIRED_FIELDS: Dict[str, tuple] = {
    "trace_id": (str,),
    "span_id": (str,),
    "parent_id": (str, type(None)),
    "name": (str,),
    "node": (str,),
    "start": (int, float),
    "end": (int, float, type(None)),
    "status": (str,),
    "attrs": (dict,),
}


def span_to_dict(span: Span) -> Dict[str, Any]:
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "node": str(span.node),
        "start": span.start,
        "end": span.end,
        "status": span.status,
        "attrs": span.attrs,
    }


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    out = io.StringIO()
    for span in spans:
        json.dump(span_to_dict(span), out, sort_keys=True,
                  separators=(",", ":"))
        out.write("\n")
    return out.getvalue()


def span_from_dict(obj: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` from one exported JSONL object."""
    span = Span(
        trace_id=obj["trace_id"],
        span_id=obj["span_id"],
        parent_id=obj["parent_id"],
        name=obj["name"],
        node=obj["node"],
        start=obj["start"],
        attrs=dict(obj["attrs"]),
    )
    span.end = obj["end"]
    span.status = obj["status"]
    return span


def span_header_line() -> str:
    """The version header written as the first line of a span JSONL
    export.  It is an ordinary JSON object — but has no ``span_id`` —
    so version-unaware line consumers can skip it cheaply."""
    return json.dumps(
        {"schema": "repro.span", "schema_version": SPAN_SCHEMA_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )


def write_spans_jsonl(path: str, spans: Iterable[Span]) -> str:
    prepare_output_path(path, "span JSONL")
    text = spans_to_jsonl(spans)
    with open(path, "w") as fh:
        fh.write(span_header_line() + "\n")
        fh.write(text)
    return path


def spans_to_chrome(spans: Iterable[Span]) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON (load via about://tracing / Perfetto).

    Completed spans become ``"X"`` complete events; still-open spans are
    emitted as zero-duration ``"i"`` instants so nothing disappears.
    Simulated seconds map to microseconds (the format's native unit);
    each node renders as its own thread row.
    """
    events: List[Dict[str, Any]] = []
    for span in spans:
        args = dict(span.attrs)
        args["trace_id"] = span.trace_id
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.status != "ok":
            args["status"] = span.status
        base = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ts": span.start * 1e6,
            "pid": 1,
            "tid": str(span.node),
            "args": args,
        }
        if span.end is None:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({**base, "ph": "X", "dur": (span.end - span.start) * 1e6})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span]) -> str:
    prepare_output_path(path, "Chrome trace")
    doc = spans_to_chrome(spans)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return path


def write_metrics_json(
    path: str, snapshot: Dict[str, Any], meta: Dict[str, Any] | None = None
) -> str:
    """Write a metrics snapshot, stamped with ``schema_version`` (and an
    optional ``meta`` block describing the run that produced it)."""
    doc = dict(snapshot)
    doc["schema_version"] = METRICS_SCHEMA_VERSION
    if meta is not None:
        doc["meta"] = meta
    prepare_output_path(path, "metrics JSON")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_metrics_csv(path: str, snapshot: Dict[str, Any]) -> str:
    from repro.obs.metrics import flatten_snapshot

    prepare_output_path(path, "metrics CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "name", "value"])
        writer.writerows(flatten_snapshot(snapshot))
    return path


def validate_span_lines(lines: Iterable[str]) -> List[str]:
    """Schema-check JSONL span lines; returns a list of problems
    (empty = valid).  Beyond per-line field/type checks it verifies
    referential integrity: every non-null ``parent_id`` must name a
    span in the file and share its trace id.
    """
    problems: List[str] = []
    spans: Dict[str, Dict[str, Any]] = {}
    parsed: List[Dict[str, Any]] = []
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:
            problems.append(f"line {i}: not valid JSON ({exc})")
            continue
        if not isinstance(obj, dict):
            problems.append(f"line {i}: expected an object")
            continue
        if "schema_version" in obj and "span_id" not in obj:
            # The version header.  Headerless files (version 0) are
            # accepted here; the loader decides upconvert-vs-reject.
            version = obj["schema_version"]
            if not isinstance(version, int) or version > SPAN_SCHEMA_VERSION:
                problems.append(
                    f"line {i}: unsupported schema_version {version!r} "
                    f"(this build reads <= {SPAN_SCHEMA_VERSION})"
                )
            continue
        for field, types in SPAN_REQUIRED_FIELDS.items():
            if field not in obj:
                problems.append(f"line {i}: missing field {field!r}")
            elif not isinstance(obj[field], types):
                problems.append(
                    f"line {i}: field {field!r} has type "
                    f"{type(obj[field]).__name__}"
                )
        if "span_id" in obj and isinstance(obj.get("span_id"), str):
            if obj["span_id"] in spans:
                problems.append(f"line {i}: duplicate span_id {obj['span_id']!r}")
            spans[obj["span_id"]] = obj
            parsed.append(obj)
    for obj in parsed:
        parent_id = obj.get("parent_id")
        if parent_id is None:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {obj['span_id']!r}: parent {parent_id!r} not in file"
            )
        elif parent.get("trace_id") != obj.get("trace_id"):
            problems.append(
                f"span {obj['span_id']!r}: trace_id differs from parent "
                f"{parent_id!r}"
            )
    return problems


def validate_span_file(path: str) -> List[str]:
    with open(path) as fh:
        return validate_span_lines(fh)
