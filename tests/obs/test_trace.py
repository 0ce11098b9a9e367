"""Span/NodeObs/Observability unit tests: ids, parenting, determinism."""

from repro.obs.trace import NodeObs, Observability, Span, SpanRef


class RowSink:
    def __init__(self):
        self.rows = []

    def on_span_end(self, row):
        self.rows.append(row)

    def on_spans_end(self, rows):
        self.rows.append(list(rows))


def vars_of(span):
    return {field: getattr(span, field) for field in Span.__slots__}


class TestNodeObs:
    def test_disabled_by_default_and_cheap(self):
        obs = NodeObs("n0")
        assert obs.enabled is False
        assert obs.registry.enabled is False

    def test_span_ids_are_per_node_counters(self):
        obs = NodeObs("n7", enabled=True)
        a = obs.start("op", 1.0)
        b = obs.start("op", 2.0)
        assert a.span_id == "n7.1"
        assert b.span_id == "n7.2"

    def test_rootless_span_roots_its_own_trace(self):
        obs = NodeObs("n0", enabled=True)
        root = obs.start("mcast.root", 0.0)
        assert root.trace_id == root.span_id == "n0.1"
        (span,) = obs.spans
        assert (span.trace_id, span.span_id, span.parent_id) == ("n0.1", "n0.1", None)

    def test_parenting_by_span_and_by_ref(self):
        obs = NodeObs("n0", enabled=True)
        root = obs.start("root", 0.0)
        child = obs.start("child", 1.0, parent=root)
        assert child.trace_id == root.trace_id
        assert obs.spans[1].parent_id == root.span_id
        # Cross-node: the wire form is a SpanRef.
        other = NodeObs("n1", enabled=True)
        hop = other.start("hop", 2.0, parent=child.ref(depth=3))
        assert hop.trace_id == root.trace_id
        (built,) = other.spans
        assert (built.trace_id, built.parent_id) == ("n0.1", child.span_id)
        # A built Span parents like the handle it was built from.
        again = other.start("hop", 3.0, parent=obs.spans[1])
        assert (again.trace_id, other.spans[1].parent_id) == ("n0.1", "n0.2")

    def test_ref_carries_depth(self):
        span = Span("t", "s", None, "x", "n0", 0.0)
        ref = span.ref(depth=4)
        assert ref == SpanRef("t", "s", 4)
        assert span.ref() == SpanRef("t", "s", 0)
        obs = NodeObs("n0", enabled=True)
        root = obs.start("x", 0.0)
        child = obs.start("y", 0.0, parent=root.ref(depth=2))
        assert root.ref(depth=4) == SpanRef("n0.1", "n0.1", 4)
        assert child.ref() == SpanRef("n0.1", "n0.2", 0)

    def test_end_sets_status_and_duration(self):
        obs = NodeObs("n0", enabled=True)
        span = obs.start("op", 1.0)
        assert obs.spans[0].duration is None
        obs.end(span, 3.5, "timeout")
        (built,) = obs.spans
        assert built.duration == 2.5
        assert built.status == "timeout"

    def test_instant_is_zero_duration(self):
        obs = NodeObs("n0", enabled=True)
        obs.instant("obituary", 4.0, subject="n9")
        (built,) = obs.spans
        assert built.duration == 0.0
        assert built.attrs == {"subject": "n9"}

    def test_first_end_wins_and_notifies_once(self):
        """A span ended twice keeps its first end, and the stream sees
        one end: re-notifying double-counted it in the window fold."""
        obs = NodeObs("n0", enabled=True)
        obs.sink = sink = RowSink()
        span = obs.start("probe", 1.0, target=3)
        obs.end(span, 1.1, "ok")
        obs.end(span, 5.0, "timeout")
        (built,) = obs.spans
        assert (built.end, built.status) == (1.1, "ok")
        assert sink.rows == [0]

    def test_batch_close_keeps_first_ends_and_notifies_once(self):
        """The batch close has ``end()``'s contract: a row that already
        ended is neither rewritten nor re-notified, and the rest reach the
        sink as one batch."""
        obs = NodeObs("n0", enabled=True)
        obs.sink = sink = RowSink()
        rows = obs.open_rows("probe", 1.0, "target", [3, 4, 5])
        assert rows == range(0, 3)
        obs.end(obs.handle(1), 1.05, "timeout")
        obs.close_rows(rows, 1.1, "ok")
        obs.close_rows(rows, 9.0, "timeout")
        built = obs.spans
        assert [(s.end, s.status) for s in built] == [
            (1.1, "ok"), (1.05, "timeout"), (1.1, "ok")
        ]
        assert [s.attrs for s in built] == [{"target": 3}, {"target": 4}, {"target": 5}]
        assert sink.rows == [1, [0, 2]]

    def test_batch_rows_are_rows_like_any_other(self):
        """Rows opened as a batch build the spans ``start()`` would have
        opened, in flight and ended, and a batch close also freezes a
        ``start()`` row's live attrs."""
        batched, single = NodeObs("n0", enabled=True), NodeObs("n0", enabled=True)
        rows = batched.open_rows("probe", 2.0, "target", [7, 8])
        spans = [single.start("probe", 2.0, target=t) for t in (7, 8)]
        assert [vars_of(s) for s in batched.spans] == [vars_of(s) for s in single.spans]
        assert batched.open_traces() == single.open_traces() == ["n0.1", "n0.2"]
        batched.close_rows(rows, 2.1)
        for span in spans:
            single.end(span, 2.1)
        assert [vars_of(s) for s in batched.spans] == [vars_of(s) for s in single.spans]
        assert batched.open_traces() == []
        hop = batched.start("mcast.hop", 3.0, depth=1)
        hop.attrs["fanout"] = 2
        batched.close_rows([hop.row], 3.5)
        assert batched.spans[-1].attrs == {"depth": 1, "fanout": 2}
        assert batched.handle(0).ref() == SpanRef("n0.1", "n0.1", 0)

    def test_attrs_freeze_at_end(self):
        obs = NodeObs("n0", enabled=True)
        span = obs.start("mcast.hop", 1.0, depth=2)
        span.attrs["fanout"] = 3
        assert obs.spans[0].attrs == {"depth": 2, "fanout": 3}  # in flight
        obs.end(span, 2.0)
        span.attrs["late"] = True  # after the end: not recorded
        assert obs.spans[0].attrs == {"depth": 2, "fanout": 3}
        assert span.ref(1) == SpanRef("n0.1", "n0.1", 1)  # ids outlive the end

    def test_open_traces_tracks_in_flight_only(self):
        obs = NodeObs("n0", enabled=True)
        a = obs.start("a", 0.0)
        b = obs.start("b", 0.0, parent=a)
        c = obs.start("c", 0.0)
        assert obs.open_traces() == [a.trace_id, c.trace_id]
        obs.end(a, 1.0)
        obs.end(b, 1.0)
        assert obs.open_traces() == [c.trace_id]
        assert [s.span_id for s in obs.spans if s.end is None] == [c.span_id]


class TestObservability:
    def test_view_is_cached_and_inherits_enabled(self):
        root = Observability(enabled=True)
        v = root.view("k")
        assert v is root.view("k")
        assert v.enabled and v.registry.enabled

    def test_merged_spans_sorted_by_start_then_node(self):
        root = Observability(enabled=True)
        b = root.view("b")
        a = root.view("a")
        sb = b.start("x", 5.0)
        sa1 = a.start("x", 5.0)
        sa2 = a.start("x", 1.0)
        # same start: sorted node order breaks the tie deterministically
        assert [s.span_id for s in root.spans()] == \
            [sa2.span_id, sa1.span_id, sb.span_id]
        assert root.span_count() == 3

    def test_traces_group_by_trace_id(self):
        root = Observability(enabled=True)
        v = root.view("n")
        r = v.start("root", 0.0)
        v.start("child", 1.0, parent=r)
        v.start("other", 2.0)
        groups = root.traces()
        assert len(groups) == 2
        assert len(groups[r.trace_id]) == 2

    def test_open_traces_for_unknown_node_is_empty(self):
        assert Observability(enabled=True).open_traces("nope") == []

    def test_metrics_snapshot_aggregates_views(self):
        root = Observability(enabled=True)
        root.view("a").registry.inc("x", 2)
        root.view("b").registry.inc("x", 3)
        snap = root.metrics_snapshot()
        assert snap["nodes"] == 2
        assert snap["counters"]["x"] == 5
