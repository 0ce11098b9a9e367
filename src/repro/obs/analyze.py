"""Span-tree analytics: reload exports, rebuild operation trees, aggregate.

This is the read side of :mod:`repro.obs` — PR 3's exporters write span
JSONL and metrics JSON; this module loads them back (schema-validated,
versioned), reconstructs the cross-node operation trees that
``Message.trace`` parenting encodes, and reduces them to the aggregates
the paper's model predicts:

* **multicast** (§4.2) — every ``mcast.root`` plus the ``mcast.hop``
  spans reachable from it forms one dissemination tree; we measure tree
  completeness (every hop's parent chain resolves to a root in the log),
  depth against the O(log n) bound, fan-out, completion latency,
  redirect and non-delivery rates, per-kind / per-depth / per-root
  breakdowns;
* **join** (§4.3) — handshake count, failure rate, and warm-up duration
  (the ``join`` span covers get-top → level-query → download);
* **probe/obituary** (§4.1) — probe RTT and timeout rate, obituaries by
  cause, and detector false positives (an obituary whose subject
  demonstrably kept operating without rejoining).

Everything here is pure arithmetic over the loaded spans — no RNG, no
wall clock, no dict-order dependence — so analyzing the same log twice
yields byte-identical reports (the determinism contract the report CLI
tests pin down).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.export import (
    SPAN_REQUIRED_FIELDS,
    SPAN_SCHEMA_VERSION,
    span_from_dict,
)
from repro.obs.metrics import Dist
from repro.obs.trace import Span

__all__ = [
    "AnalysisReport",
    "MulticastTree",
    "SchemaError",
    "TraceForest",
    "analyze_file",
    "analyze_spans",
    "load_metrics",
    "load_spans",
    "multicast_trees",
]

#: Span names that participate in a multicast dissemination tree.
_MCAST_NAMES = ("mcast.root", "mcast.hop")


class SchemaError(ValueError):
    """A span/metrics export could not be loaded: wrong schema version
    or malformed records.  The message says which and what to do."""


def _check_span_obj(obj: Any, where: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object, got "
                          f"{type(obj).__name__}")
    for fieldname, types in SPAN_REQUIRED_FIELDS.items():
        if fieldname not in obj:
            raise SchemaError(f"{where}: missing field {fieldname!r}")
        if not isinstance(obj[fieldname], types):
            raise SchemaError(
                f"{where}: field {fieldname!r} has type "
                f"{type(obj[fieldname]).__name__}"
            )
    return obj


def load_span_lines(lines: Iterable[str]) -> Tuple[List[Span], int, int]:
    """Parse span JSONL lines into :class:`Span` objects.

    Returns ``(spans, schema_version, lines_skipped)``.  A headerless
    file — the PR 3 format — is version 0 and upconverts transparently
    (the span record shape is unchanged between 0 and 1); a header newer
    than :data:`SPAN_SCHEMA_VERSION` raises :class:`SchemaError` so a
    stale analyzer never silently misreads a future export.

    Malformed or truncated records — a live node killed mid-write leaves
    a partial last line — are **skipped and counted**, not fatal: a
    crash is exactly when the surviving spans matter most.  The count
    surfaces in :attr:`AnalysisReport.lines_skipped` so a corrupted log
    is never mistaken for a clean one.
    """
    spans: List[Span] = []
    version = 0
    skipped = 0
    for i, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if isinstance(obj, dict) and "schema_version" in obj and "span_id" not in obj:
            declared = obj["schema_version"]
            if not isinstance(declared, int) or declared > SPAN_SCHEMA_VERSION:
                raise SchemaError(
                    f"line {i}: span log has schema_version {declared!r} but "
                    f"this build reads <= {SPAN_SCHEMA_VERSION}; re-export "
                    f"with a matching version or upgrade the analyzer"
                )
            version = declared
            continue
        try:
            spans.append(span_from_dict(_check_span_obj(obj, f"line {i}")))
        except SchemaError:
            skipped += 1
    return spans, version, skipped


def load_spans(path: str) -> Tuple[List[Span], int, int]:
    """Load a span JSONL export from disk (see :func:`load_span_lines`)."""
    with open(path) as fh:
        return load_span_lines(fh)


def load_metrics(path: str) -> Dict[str, Any]:
    """Load a metrics JSON snapshot, enforcing its ``schema_version``.

    Headerless documents (PR 3) are version 0 and load as-is; newer than
    :data:`~repro.obs.export.METRICS_SCHEMA_VERSION` raises
    :class:`SchemaError`.
    """
    from repro.obs.export import METRICS_SCHEMA_VERSION

    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    declared = doc.get("schema_version", 0)
    if not isinstance(declared, int) or declared > METRICS_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: metrics snapshot has schema_version {declared!r} but "
            f"this build reads <= {METRICS_SCHEMA_VERSION}"
        )
    return doc


class TraceForest:
    """Index over a span log: by id, parent -> children."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: List[Span] = list(spans)
        self.by_id: Dict[str, Span] = {}
        self.children: Dict[str, List[Span]] = {}
        for span in self.spans:
            self.by_id[span.span_id] = span
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)
        # Deterministic traversal order regardless of input order.
        for kids in self.children.values():
            kids.sort(key=lambda s: (s.start, s.span_id))

    def descendants(self, root: Span) -> List[Span]:
        """``root`` plus everything reachable through ``parent_id`` links,
        in deterministic pre-order."""
        out: List[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(self.children.get(span.span_id, [])))
        return out

    def resolves_to_root(self, span: Span, root_names: Tuple[str, ...]) -> bool:
        """Whether the ancestor chain of ``span`` reaches a span named in
        ``root_names`` without leaving the log (cycle-guarded)."""
        seen = set()
        cur: Optional[Span] = span
        while cur is not None:
            if cur.name in root_names:
                return True
            if cur.span_id in seen:
                return False
            seen.add(cur.span_id)
            cur = self.by_id.get(cur.parent_id) if cur.parent_id else None
        return False


@dataclass
class MulticastTree:
    """One reconstructed §4.2 dissemination tree."""

    root: Span
    members: List[Span]          # root + hops, pre-order
    redirects: int
    kind: str

    @property
    def depth(self) -> int:
        return max(int(s.attrs.get("depth", 0)) for s in self.members)

    @property
    def delivered(self) -> int:
        return sum(1 for s in self.members if s.status == "ok")

    @property
    def undelivered(self) -> int:
        """Hops that died mid-flight or never closed."""
        return sum(
            1 for s in self.members if s.status == "died" or s.end is None
        )

    @property
    def completion_latency(self) -> Optional[float]:
        ends = [s.end for s in self.members if s.end is not None]
        return (max(ends) - self.root.start) if ends else None

    def fanouts(self) -> List[float]:
        return [
            float(s.attrs["fanout"]) for s in self.members
            if "fanout" in s.attrs
        ]


def multicast_trees(spans: Iterable[Span]) -> List[MulticastTree]:
    """Every §4.2 tree in ``spans``: what ``parent_id`` links reach from
    an ``mcast.root``, roots in ``(start, span_id)`` order.

    Besides a root, only a span that has a parent can be in a tree, so
    those are all that is indexed — a few per cent of a probe-heavy log.
    Trace ids are not consulted: a loaded log may be inconsistent.
    """
    forest = TraceForest(
        s for s in spans if s.parent_id is not None or s.name == "mcast.root"
    )
    roots = sorted(
        (s for s in forest.spans if s.name == "mcast.root"),
        key=lambda s: (s.start, s.span_id),
    )
    trees = []
    for root in roots:
        reached = forest.descendants(root)
        trees.append(
            MulticastTree(
                root=root,
                members=[s for s in reached if s.name in _MCAST_NAMES],
                redirects=sum(1 for s in reached if s.name == "mcast.redirect"),
                kind=str(root.attrs.get("kind", "?")),
            )
        )
    return trees


def _dist_of(values: Iterable[float]) -> Dist:
    dist = Dist()
    for v in values:
        dist.observe(v)
    return dist


def _dist_dict(dist: Dist) -> Dict[str, float]:
    d = dist.as_dict()
    # sumsq is an accumulator detail, not a reported statistic.
    d.pop("sumsq", None)
    return d


@dataclass
class AnalysisReport:
    """Deterministic aggregate view of one span log."""

    schema_version: int
    spans_total: int
    nodes: int
    sim_span: Tuple[float, float]
    #: Malformed/truncated JSONL lines the loader skipped (0 for a
    #: clean log; see :func:`load_span_lines`).
    lines_skipped: int = 0

    # multicast
    trees: List[MulticastTree] = field(default_factory=list)
    mcast_spans_total: int = 0
    mcast_spans_in_complete_trees: int = 0
    orphan_hops: int = 0
    redirects_total: int = 0

    # join / probe / obituary
    joins_ok: int = 0
    joins_failed: int = 0
    join_warmup: Dist = field(default_factory=Dist)
    probes: int = 0
    probe_timeouts: int = 0
    probe_rtt: Dist = field(default_factory=Dist)
    obituaries_by_via: Dict[str, int] = field(default_factory=dict)
    false_obituaries: int = 0

    @property
    def tree_completeness(self) -> float:
        """Fraction of multicast spans whose ancestor chain resolves to a
        root present in the log — the ≥ 0.99 acceptance signal."""
        if self.mcast_spans_total == 0:
            return 1.0
        return self.mcast_spans_in_complete_trees / self.mcast_spans_total

    @property
    def non_delivery_rate(self) -> float:
        if self.mcast_spans_total == 0:
            return 0.0
        undelivered = sum(t.undelivered for t in self.trees) + self.orphan_hops
        return undelivered / self.mcast_spans_total

    @property
    def redirect_rate(self) -> float:
        if self.mcast_spans_total == 0:
            return 0.0
        return self.redirects_total / self.mcast_spans_total

    @property
    def max_depth(self) -> int:
        return max((t.depth for t in self.trees), default=0)

    @property
    def join_failure_rate(self) -> float:
        total = self.joins_ok + self.joins_failed
        return self.joins_failed / total if total else 0.0

    @property
    def probe_timeout_rate(self) -> float:
        return self.probe_timeouts / self.probes if self.probes else 0.0

    @property
    def detector_false_positive_rate(self) -> float:
        total = sum(self.obituaries_by_via.values())
        return self.false_obituaries / total if total else 0.0

    def per_kind(self) -> Dict[str, Dict[str, Any]]:
        """Tree stats grouped by event kind (JOIN/LEAVE/REFRESH)."""
        out: Dict[str, Dict[str, Any]] = {}
        for kind in sorted({t.kind for t in self.trees}):
            trees = [t for t in self.trees if t.kind == kind]
            latencies = [
                t.completion_latency for t in trees
                if t.completion_latency is not None
            ]
            out[kind] = {
                "trees": len(trees),
                "depth": _dist_dict(_dist_of(float(t.depth) for t in trees)),
                "completion_latency": _dist_dict(_dist_of(latencies)),
            }
        return out

    def per_depth(self) -> Dict[str, int]:
        """Span count at each tree level — the per-level breakdown."""
        counts: Dict[int, int] = {}
        for tree in self.trees:
            for span in tree.members:
                d = int(span.attrs.get("depth", 0))
                counts[d] = counts.get(d, 0) + 1
        return {str(d): counts[d] for d in sorted(counts)}

    def per_root(self) -> Dict[str, int]:
        """Trees originated per root node — the per-part breakdown proxy
        (each eigenstring part multicasts through its own top nodes)."""
        counts: Dict[str, int] = {}
        for tree in self.trees:
            node = str(tree.root.node)
            counts[node] = counts.get(node, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def signals(self) -> Dict[str, float]:
        """The scalar signals the health engine evaluates SLOs over."""
        return {
            "mcast.tree_completeness": self.tree_completeness,
            "mcast.non_delivery_rate": self.non_delivery_rate,
            "mcast.redirect_rate": self.redirect_rate,
            "mcast.max_depth": float(self.max_depth),
            "mcast.trees": float(len(self.trees)),
            "join.failure_rate": self.join_failure_rate,
            "join.warmup_mean": self.join_warmup.mean,
            "probe.timeout_rate": self.probe_timeout_rate,
            "detector.false_positive_rate": self.detector_false_positive_rate,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-stable summary (tree list reduced to aggregates)."""
        latencies = [
            t.completion_latency for t in self.trees
            if t.completion_latency is not None
        ]
        return {
            "schema_version": self.schema_version,
            "spans_total": self.spans_total,
            "lines_skipped": self.lines_skipped,
            "nodes": self.nodes,
            "sim_span": list(self.sim_span),
            "multicast": {
                "trees": len(self.trees),
                "spans": self.mcast_spans_total,
                "spans_in_complete_trees": self.mcast_spans_in_complete_trees,
                "orphan_hops": self.orphan_hops,
                "tree_completeness": self.tree_completeness,
                "non_delivery_rate": self.non_delivery_rate,
                "redirects": self.redirects_total,
                "redirect_rate": self.redirect_rate,
                "max_depth": self.max_depth,
                "depth": _dist_dict(
                    _dist_of(float(t.depth) for t in self.trees)
                ),
                "fanout": _dist_dict(
                    _dist_of(f for t in self.trees for f in t.fanouts())
                ),
                "completion_latency": _dist_dict(_dist_of(latencies)),
                "per_kind": self.per_kind(),
                "per_depth": self.per_depth(),
                "per_root": self.per_root(),
            },
            "join": {
                "ok": self.joins_ok,
                "failed": self.joins_failed,
                "failure_rate": self.join_failure_rate,
                "warmup": _dist_dict(self.join_warmup),
            },
            "probe": {
                "count": self.probes,
                "timeouts": self.probe_timeouts,
                "timeout_rate": self.probe_timeout_rate,
                "rtt": _dist_dict(self.probe_rtt),
            },
            "obituaries": {
                "by_via": dict(sorted(self.obituaries_by_via.items())),
                "false_positives": self.false_obituaries,
                "false_positive_rate": self.detector_false_positive_rate,
            },
            "signals": self.signals(),
        }


def _false_obituary(
    forest: TraceForest,
    obituary: Span,
    spans_by_node: Dict[str, List[Span]],
) -> bool:
    """An obituary is a detector false positive when its subject keeps
    producing spans afterwards *without rejoining first* — a node that
    really crashed and recovered re-enters through a ``join`` span."""
    subject = obituary.attrs.get("subject")
    if subject is None:
        return False
    for span in spans_by_node.get(str(subject), ()):
        if span.start <= obituary.start:
            continue
        # First post-obituary activity decides: a rejoin means the death
        # was real; anything else means we buried a live node.
        return span.name != "join"
    return False


def analyze_spans(spans: List[Span], schema_version: int = SPAN_SCHEMA_VERSION
                  ) -> AnalysisReport:
    """Reduce a span log to an :class:`AnalysisReport` (pure function)."""
    forest = TraceForest(spans)
    nodes = {str(s.node) for s in spans}
    starts = [s.start for s in spans]
    ends = [s.end for s in spans if s.end is not None]
    report = AnalysisReport(
        schema_version=schema_version,
        spans_total=len(spans),
        nodes=len(nodes),
        sim_span=(
            min(starts) if starts else 0.0,
            max(ends + starts) if starts else 0.0,
        ),
    )

    spans_by_node: Dict[str, List[Span]] = {}
    for span in sorted(forest.spans, key=lambda s: (s.start, s.span_id)):
        spans_by_node.setdefault(str(span.node), []).append(span)

    # -- multicast trees --------------------------------------------------
    mcast = [s for s in forest.spans if s.name in _MCAST_NAMES]
    report.mcast_spans_total = len(mcast)
    report.trees = multicast_trees(forest.spans)
    claimed = {s.span_id for t in report.trees for s in t.members}
    report.redirects_total = sum(t.redirects for t in report.trees)
    for span in mcast:
        if forest.resolves_to_root(span, ("mcast.root",)):
            report.mcast_spans_in_complete_trees += 1
    report.orphan_hops = sum(
        1 for s in mcast if s.span_id not in claimed
    )

    # -- joins / probes / obituaries -------------------------------------
    for span in forest.spans:
        if span.name == "join":
            if span.status == "ok":
                report.joins_ok += 1
                if span.end is not None:
                    report.join_warmup.observe(span.end - span.start)
            elif span.status in ("failed", "died"):
                report.joins_failed += 1
        elif span.name in ("probe", "probe.verify"):
            report.probes += 1
            if span.status == "timeout":
                report.probe_timeouts += 1
            elif span.status == "ok" and span.end is not None:
                report.probe_rtt.observe(span.end - span.start)
        elif span.name == "obituary":
            via = str(span.attrs.get("via", "?"))
            report.obituaries_by_via[via] = (
                report.obituaries_by_via.get(via, 0) + 1
            )
            if _false_obituary(forest, span, spans_by_node):
                report.false_obituaries += 1
    return report


def analyze_file(path: str) -> AnalysisReport:
    """Load + analyze a span JSONL export."""
    spans, version, skipped = load_spans(path)
    report = analyze_spans(spans, schema_version=version)
    report.lines_skipped = skipped
    return report
