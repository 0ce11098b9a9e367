"""Span-tree analytics: golden tree reconstruction + schema handling."""

import json

import pytest

from repro.obs import analyze
from repro.obs.analyze import (
    SchemaError,
    analyze_spans,
    load_metrics,
    load_span_lines,
    load_spans,
    multicast_trees,
)
from repro.obs.export import (
    SPAN_SCHEMA_VERSION,
    span_header_line,
    spans_to_jsonl,
)
from repro.obs.trace import Span


def _span(trace, sid, parent, name, node, start, end=None, status="ok",
          attrs=None):
    span = Span(trace, sid, parent, name, node, start, attrs=attrs or {})
    span.end = end
    span.status = status
    return span


def golden_tree_spans():
    """A hand-built 8-node JOIN multicast: root n0 fans out to n1..n3,
    n1 to n4/n5, n2 to n6, n4 to n7 — depth 3, one redirect under n2."""
    t = "t-golden"
    mk = _span
    return [
        mk(t, "s0", None, "mcast.root", "n0", 10.0, 10.1,
           attrs={"kind": "JOIN", "subject": 5, "depth": 0, "fanout": 3}),
        mk(t, "s1", "s0", "mcast.hop", "n1", 10.2, 10.3,
           attrs={"kind": "JOIN", "depth": 1, "fanout": 2}),
        mk(t, "s2", "s0", "mcast.hop", "n2", 10.2, 10.4,
           attrs={"kind": "JOIN", "depth": 1, "fanout": 1}),
        mk(t, "s3", "s0", "mcast.hop", "n3", 10.25, 10.3,
           attrs={"kind": "JOIN", "depth": 1, "fanout": 0}),
        mk(t, "s4", "s1", "mcast.hop", "n4", 10.4, 10.5,
           attrs={"kind": "JOIN", "depth": 2, "fanout": 1}),
        mk(t, "s5", "s1", "mcast.hop", "n5", 10.4, 10.45,
           attrs={"kind": "JOIN", "depth": 2, "fanout": 0}),
        mk(t, "s6", "s2", "mcast.hop", "n6", 10.5, 10.6,
           attrs={"kind": "JOIN", "depth": 2, "fanout": 0}),
        mk(t, "s7", "s4", "mcast.hop", "n7", 10.6, 10.8,
           attrs={"kind": "JOIN", "depth": 3, "fanout": 0}),
        mk(t, "s8", "s2", "mcast.redirect", "n2", 10.35, 10.35,
           attrs={"failed": 9, "replacement": 6, "bit": 2}),
    ]


def test_golden_eight_node_tree_reconstruction():
    report = analyze_spans(golden_tree_spans())
    assert len(report.trees) == 1
    tree = report.trees[0]
    assert [s.span_id for s in tree.members] == [
        "s0", "s1", "s4", "s7", "s5", "s2", "s6", "s3",
    ]  # deterministic pre-order, children sorted by (start, span_id)
    assert tree.kind == "JOIN"
    assert tree.depth == 3
    assert tree.redirects == 1
    assert tree.delivered == 8
    assert tree.undelivered == 0
    assert tree.completion_latency == pytest.approx(10.8 - 10.0)
    assert sorted(tree.fanouts()) == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0]

    assert report.mcast_spans_total == 8  # redirect is not a tree member
    assert report.tree_completeness == 1.0
    assert report.orphan_hops == 0
    assert report.redirect_rate == pytest.approx(1 / 8)
    assert report.per_depth() == {"0": 1, "1": 3, "2": 3, "3": 1}
    assert report.per_root() == {"n0": 1}
    kinds = report.per_kind()
    assert kinds["JOIN"]["trees"] == 1
    assert kinds["JOIN"]["depth"]["mean"] == 3.0


def test_multicast_trees_is_the_reports_tree_list():
    spans = golden_tree_spans()
    trees = multicast_trees(spans)
    assert trees == analyze_spans(spans).trees
    assert [s.span_id for s in trees[0].members] == [
        "s0", "s1", "s4", "s7", "s5", "s2", "s6", "s3",
    ]
    assert (trees[0].redirects, trees[0].kind) == (1, "JOIN")
    # any iterable, in any order: roots and children are sorted inside
    assert multicast_trees(reversed(spans)) == trees
    assert multicast_trees(iter(())) == []


def test_trees_follow_parent_links_not_trace_ids():
    """A loaded log may be inconsistent: a hop whose trace id differs
    from its root's is still the root's child, and a span that shares the
    root's trace id but has no parent link is not in its tree."""
    spans = golden_tree_spans()
    spans[4].trace_id = "t-rewritten"  # s4, parent s1; s7 hangs under it
    spans.append(_span("t-golden", "s9", None, "mcast.hop", "n8", 10.3, 10.4,
                       attrs={"depth": 1}))
    trees = multicast_trees(spans)
    assert trees == analyze_spans(spans).trees
    assert [s.span_id for s in trees[0].members] == [
        "s0", "s1", "s4", "s7", "s5", "s2", "s6", "s3",
    ]


def test_tree_index_holds_only_spans_that_can_be_in_a_tree(monkeypatch):
    """Probe-heavy logs are nearly all parentless spans: the index built
    to find trees holds the roots and the spans with a parent, nothing
    else (counted: what ``multicast_trees`` hands its forest)."""
    indexed = []

    class Recording(analyze.TraceForest):
        def __init__(self, spans):
            super().__init__(spans)
            indexed.append(self)

    spans = golden_tree_spans() + [
        _span(f"tp{i}", f"p{i}", None, "probe", "n3", float(i), i + 0.1)
        for i in range(200)
    ]
    monkeypatch.setattr(analyze, "TraceForest", Recording)
    assert len(multicast_trees(spans)) == 1
    (forest,) = indexed
    assert [s.span_id for s in forest.spans] == [f"s{i}" for i in range(9)]
    assert not hasattr(forest, "by_trace")


def test_golden_tree_round_trips_through_jsonl():
    spans = golden_tree_spans()
    text = span_header_line() + "\n" + spans_to_jsonl(spans)
    loaded, version, skipped = load_span_lines(text.splitlines())
    assert (version, skipped) == (SPAN_SCHEMA_VERSION, 0)
    direct = analyze_spans(spans).to_dict()
    reloaded = analyze_spans(loaded).to_dict()
    assert direct == reloaded


def test_orphan_hop_breaks_completeness():
    spans = golden_tree_spans()
    spans.append(_span("t-other", "s9", "missing-parent", "mcast.hop",
                       "n8", 11.0, 11.1, attrs={"depth": 1}))
    report = analyze_spans(spans)
    assert report.mcast_spans_total == 9
    assert report.orphan_hops == 1
    assert report.tree_completeness == pytest.approx(8 / 9)


def test_undelivered_counts_died_and_unclosed_hops():
    spans = golden_tree_spans()
    spans[7].status = "died"
    spans[6].end = None
    report = analyze_spans(spans)
    assert report.trees[0].undelivered == 2
    assert report.non_delivery_rate == pytest.approx(2 / 8)


def test_join_probe_obituary_aggregates():
    mk = _span
    spans = [
        mk("tj1", "j1", None, "join", "n1", 0.0, 4.0),
        mk("tj2", "j2", None, "join", "n2", 1.0, None, status="failed"),
        mk("tp1", "p1", None, "probe", "n3", 2.0, 2.5),
        mk("tp2", "p2", None, "probe", "n3", 3.0, None, status="timeout"),
        mk("tp3", "p3", None, "probe.verify", "n3", 4.0, 4.2),
        # n9 is buried at t=10 but keeps probing at t=12: false positive.
        mk("to1", "o1", None, "obituary", "n3", 10.0, 10.0,
           attrs={"subject": "n9", "via": "ring-probe"}),
        mk("tx1", "x1", None, "probe", "n9", 12.0, 12.1),
        # n8 is buried and comes back through a join: real death.
        mk("to2", "o2", None, "obituary", "n4", 10.0, 10.0,
           attrs={"subject": "n8", "via": "mcast-retry"}),
        mk("tx2", "x2", None, "join", "n8", 15.0, 18.0),
    ]
    report = analyze_spans(spans)
    assert (report.joins_ok, report.joins_failed) == (2, 1)
    assert report.join_failure_rate == pytest.approx(1 / 3)
    assert report.join_warmup.count == 2  # 4.0s warm-up + n8's rejoin
    assert report.probes == 4
    assert report.probe_timeouts == 1
    assert report.probe_rtt.count == 3
    assert report.obituaries_by_via == {"mcast-retry": 1, "ring-probe": 1}
    assert report.false_obituaries == 1
    assert report.detector_false_positive_rate == pytest.approx(0.5)


def test_headerless_log_upconverts_as_version_zero():
    spans, version, skipped = load_span_lines(
        spans_to_jsonl(golden_tree_spans()).splitlines()
    )
    assert (version, skipped) == (0, 0)
    assert len(spans) == 9


def test_future_schema_version_is_rejected():
    header = json.dumps(
        {"schema": "repro.span", "schema_version": SPAN_SCHEMA_VERSION + 1}
    )
    with pytest.raises(SchemaError, match="schema_version"):
        load_span_lines([header])


def test_malformed_records_are_skipped_and_counted():
    """A crash mid-flush leaves a truncated tail; bad lines must not
    take the rest of the log down with them."""
    good = spans_to_jsonl(golden_tree_spans())
    bad_type = json.loads(good.strip().splitlines()[0])
    bad_type["start"] = "soon"
    lines = (
        ["{nope", json.dumps({"span_id": "s1"}), json.dumps(bad_type)]
        + good.splitlines()
        + ['{"trace_id": "t-trunc", "span_id": "s99", "na']
    )
    spans, version, skipped = load_span_lines(lines)
    assert (len(spans), version, skipped) == (9, 0, 4)


def test_lines_skipped_surfaces_in_analysis(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        span_header_line() + "\n"
        + spans_to_jsonl(golden_tree_spans())
        + '{"trace_id": "t-trunc", "span_id'  # truncated tail
    )
    from repro.obs.analyze import analyze_file

    report = analyze_file(str(path))
    assert report.lines_skipped == 1
    assert report.to_dict()["lines_skipped"] == 1


def test_load_spans_and_metrics_from_disk(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    spans_path.write_text(
        span_header_line() + "\n" + spans_to_jsonl(golden_tree_spans())
    )
    spans, version, skipped = load_spans(str(spans_path))
    assert (len(spans), version, skipped) == (9, SPAN_SCHEMA_VERSION, 0)

    good = tmp_path / "metrics.json"
    good.write_text(json.dumps({"schema_version": 1, "counters": {}}))
    assert load_metrics(str(good))["schema_version"] == 1

    future = tmp_path / "future.json"
    future.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SchemaError, match="schema_version"):
        load_metrics(str(future))


def test_empty_log_analyzes_to_vacuous_health():
    report = analyze_spans([])
    assert report.tree_completeness == 1.0
    assert report.non_delivery_rate == 0.0
    assert report.signals()["mcast.trees"] == 0.0
