"""Streaming telemetry: bus taps, window folding, frame IO, windower."""

import json

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.obs.analyze import SchemaError
from repro.obs.export import spans_to_jsonl
from repro.obs.health import HealthSpec, Slo
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
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
from repro.obs.trace import NodeObs, Observability, Span

CONFIG = ProtocolConfig(
    id_bits=16,
    probe_interval=8.0,
    probe_timeout=2.0,
    report_timeout=4.0,
    multicast_ack_timeout=2.0,
    level_check_interval=45.0,
    multicast_processing_delay=1.0,
)


def _span(name, node="n0", start=0.0, end=1.0, status="ok", attrs=None):
    span = Span(f"t-{name}", f"{node}.s", None, name, node, start,
                attrs=attrs or {})
    span.end = end
    span.status = status
    return span


def _small_net(**kwargs):
    net = PeerWindowNetwork(
        config=CONFIG,
        master_seed=5,
        topology=PairwiseLatencyModel(),
        observability=True,
        **kwargs,
    )
    net.seed_nodes([4000.0] * 20)
    return net


class ListSink:
    def __init__(self):
        self.lines = []
        self.closed = False

    def write(self, frame):
        self.lines.append(frame_line(frame))

    def close(self):
        self.closed = True


class BoomSink:
    """A sink whose callbacks must never run (hot-path fixture)."""

    def on_span_end(self, span):  # pragma: no cover - the point is no call
        raise AssertionError("sink reached through a disabled emit path")

    def on_inc(self, name, value):  # pragma: no cover - same
        raise AssertionError("sink reached through a disabled emit path")


# -- the bus ----------------------------------------------------------------


class TestBus:
    def test_tap_receives_span_ends_and_counter_deltas(self):
        obs = NodeObs("n0", enabled=True)
        tap = NodeTap("n0")
        obs.sink = tap
        obs.registry.sink = tap
        span = obs.start("probe", 1.0)
        assert tap.spans == []  # only *ends* are published
        obs.end(span, 2.0, status="timeout")
        obs.instant("obituary", 3.0)
        obs.registry.inc("mcast.received")
        obs.registry.inc("mcast.received", 2)
        spans, counts = tap.drain()
        assert [s.name for s in spans] == ["probe", "obituary"]
        assert counts == {"mcast.received": 3}
        assert tap.drain() == ([], {})  # drain resets

    def test_disabled_paths_never_reach_the_sink(self):
        """The sink check sits *behind* the enabled guard: a disabled
        registry or tracer must not pay for (or even touch) a
        subscriber."""
        reg = MetricsRegistry(enabled=False)
        reg.sink = BoomSink()
        reg.inc("mcast.received")  # must not raise
        obs = NodeObs("n0", enabled=False)
        obs.sink = BoomSink()
        if obs.enabled:  # pragma: no cover - the span-site idiom
            obs.instant("probe", 0.0)

    def test_attach_bus_taps_current_and_future_views(self):
        root = Observability(enabled=True)
        before = root.view("a")
        bus = TelemetryBus()
        root.attach_bus(bus)
        after = root.view("b")
        assert before.sink is bus.taps["a"]
        assert after.sink is bus.taps["b"]
        assert after.registry.sink is bus.taps["b"]
        root.detach_bus()
        assert before.sink is None and after.registry.sink is None

    def test_bus_drains_in_sorted_node_order(self):
        root = Observability(enabled=True)
        bus = TelemetryBus()
        root.attach_bus(bus)
        for node in ("b", "a", "c"):
            root.view(node).instant("probe", 1.0)
        assert [node for node, _, _ in bus.drain()] == ["a", "b", "c"]

    def test_bus_leaves_span_export_byte_identical(self):
        plain = _small_net()
        plain.run(until=60.0)
        tapped = _small_net()
        tapped.obs.attach_bus(TelemetryBus())
        tapped.run(until=60.0)
        assert spans_to_jsonl(tapped.spans()) == spans_to_jsonl(plain.spans())
        assert json.dumps(tapped.metrics_snapshot(), sort_keys=True) == \
            json.dumps(plain.metrics_snapshot(), sort_keys=True)


# -- window folding ---------------------------------------------------------


class TestWindowBucket:
    def test_span_classification(self):
        bucket = WindowBucket()
        for span in (
            _span("mcast.root", attrs={"depth": 0}),
            _span("mcast.hop", attrs={"depth": 3}),
            _span("mcast.hop", status="died", attrs={"depth": 1}),
            _span("mcast.redirect"),
            _span("join"),
            _span("join", status="failed"),
            _span("probe"),
            _span("probe", status="timeout"),
            _span("probe.verify"),
            _span("obituary"),
        ):
            bucket.add_span(span)
        assert bucket.spans == 10
        assert bucket.mcast_spans == 3
        assert bucket.mcast_max_depth == 3
        assert bucket.mcast_died == 1
        assert bucket.mcast_redirects == 1
        assert (bucket.join_ok, bucket.join_failed) == (1, 1)
        assert (bucket.probes, bucket.probe_timeouts) == (3, 1)
        assert bucket.obituaries == 1
        signals = bucket.rate_signals()
        assert signals["join.failure_rate"] == pytest.approx(0.5)
        assert signals["probe.timeout_rate"] == pytest.approx(1 / 3)
        assert signals["mcast.death_rate"] == pytest.approx(1 / 3)
        assert signals["mcast.max_depth"] == 3.0

    def test_idle_window_emits_no_rate_signals(self):
        assert WindowBucket().rate_signals() == {}

    def test_add_frame_round_trips_through_aggregator(self):
        """bucket -> frame -> add_frame reproduces the bucket: the live
        merge path must not lose or double any fact."""
        bucket = WindowBucket()
        bucket.add_node(
            [_span("mcast.root", attrs={"depth": 2}), _span("join")],
            {"mcast.received": 4},
        )
        frame = WindowAggregator().close_window(0, 0.0, 15.0, bucket)
        refolded = WindowBucket()
        refolded.add_frame(frame)
        again = WindowAggregator().close_window(0, 0.0, 15.0, refolded)
        assert frame_line(again) == frame_line(frame)


class TestWindowAggregator:
    def test_ewma_breaches_surface_in_frames(self):
        spec = HealthSpec(slos=[Slo("probe.timeout_rate", hi=0.1)])
        agg = WindowAggregator(spec=spec, alpha=1.0, warmup=0)
        bucket = WindowBucket()
        bucket.add_node(
            [_span("probe"), _span("probe", status="timeout")], {}
        )
        frame = agg.close_window(0, 0.0, 15.0, bucket)
        assert frame["healthy"] is False
        assert [b["slo"] for b in frame["breaches"]] == ["probe.timeout_rate"]
        assert frame["verdicts"] == []  # full verdicts are final-frame only

    def test_final_frame_evaluates_cumulative_signals(self):
        spec = HealthSpec(slos=[Slo("join.failure_rate", hi=0.5)])
        agg = WindowAggregator(spec=spec)
        ok = WindowBucket()
        ok.add_node([_span("join")], {})
        agg.close_window(0, 0.0, 15.0, ok)
        leftover = WindowBucket()
        leftover.add_node([_span("join", status="failed")], {})
        frame = agg.final_frame(1, 15.0, 20.0, bucket=leftover)
        assert frame["final"] is True
        assert frame["join"] == {"ok": 1, "failed": 1}  # cumulative
        assert [v["slo"] for v in frame["verdicts"]] == ["join.failure_rate"]
        assert frame["healthy"] is True
        assert frame["signals"]["join.failure_rate"] == pytest.approx(0.5)


# -- frame IO + merging -----------------------------------------------------


class TestFrameIO:
    def _frames(self):
        agg = WindowAggregator()
        bucket = WindowBucket()
        bucket.add_node([_span("probe")], {"mcast.received": 1})
        return [agg.close_window(0, 0.0, 15.0, bucket),
                agg.final_frame(1, 15.0, 20.0)]

    def test_snapshot_writer_round_trips(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        writer = SnapshotWriter(str(path))
        frames = self._frames()
        for frame in frames:
            writer.write(frame)
        writer.close()
        loaded, version, skipped = load_frames_file(str(path))
        assert (version, skipped) == (1, 0)
        assert [frame_line(f) for f in loaded] == \
            [frame_line(f) for f in frames]
        with pytest.raises(ValueError, match="closed"):
            writer.write(frames[0])

    def test_malformed_lines_are_skipped_and_counted(self):
        lines = [
            telemetry_header_line(),
            frame_line(self._frames()[0]),
            "{truncated",
            json.dumps(["not", "a", "frame"]),
            json.dumps({"no": "window"}),
            json.dumps({"window": "zero", "t1": 15.0}),
            json.dumps({"window": None, "t1": 15.0}),
            json.dumps({"window": 0, "t1": "late"}),
        ]
        frames, version, skipped = load_frames(lines)
        assert (len(frames), version, skipped) == (1, 1, 6)
        # What the loader lets through is what the merge can index.
        assert len(merge_node_frames([("n0", frames)])) == 2

    def test_future_schema_version_is_rejected(self):
        # Newer, and not an int at all: both unreadable, both SchemaError.
        for declared in (99, "two", None, 1.5):
            header = json.dumps({"schema": "repro.telemetry",
                                 "schema_version": declared})
            with pytest.raises(SchemaError, match="schema_version"):
                load_frames([header])

    def test_merge_node_frames_folds_by_window_index(self):
        def node_frames(node, probes):
            agg = WindowAggregator()
            out = []
            for i, count in enumerate(probes):
                bucket = WindowBucket()
                bucket.add_node([_span("probe", node=node)] * count, {})
                out.append(agg.close_window(i, i * 5.0, (i + 1) * 5.0, bucket))
            return out

        merged = merge_node_frames([
            ("host:2", node_frames("host:2", [2, 1])),
            ("host:1", node_frames("host:1", [1, 0])),
        ])
        assert [f["window"] for f in merged] == [0, 1, 2]
        assert [f.get("final", False) for f in merged] == [False, False, True]
        assert [f["probe"]["count"] for f in merged] == [3, 1, 4]
        assert merged[0]["taps"] == 2

    def test_merge_is_invariant_to_input_order(self):
        agg_a, agg_b = WindowAggregator(), WindowAggregator()
        bucket = WindowBucket()
        bucket.add_node([_span("join")], {})
        a = [agg_a.close_window(0, 0.0, 5.0, bucket)]
        bucket2 = WindowBucket()
        bucket2.add_node([_span("join", status="failed")], {})
        b = [agg_b.close_window(0, 0.0, 5.0, bucket2)]
        one = merge_node_frames([("host:1", a), ("host:2", b)])
        two = merge_node_frames([("host:2", b), ("host:1", a)])
        assert [frame_line(f) for f in one] == [frame_line(f) for f in two]


# -- the sim-side windower --------------------------------------------------


class TestStreamWindower:
    def test_requires_observability(self):
        net = PeerWindowNetwork(config=CONFIG, master_seed=5,
                                topology=PairwiseLatencyModel())
        with pytest.raises(ValueError, match="observability"):
            StreamWindower(net)

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="window"):
            StreamWindower(_small_net(), window=0.0)

    def test_window_grid_survives_odd_run_slicing(self):
        """Frames are a function of (seed, window), not of how the
        driver slices its run() calls."""
        one = _small_net()
        sink_one = ListSink()
        w_one = StreamWindower(one, window=15.0, sinks=[sink_one])
        w_one.run(until=60.0)
        w_one.finish()

        two = _small_net()
        sink_two = ListSink()
        w_two = StreamWindower(two, window=15.0, sinks=[sink_two])
        for until in (7.0, 15.0, 33.0, 44.9, 60.0):
            w_two.run(until=until)
        w_two.finish()

        assert sink_one.lines == sink_two.lines
        assert sink_one.closed and sink_two.closed
        assert w_one.frames_emitted == 5  # 4 windows + final

    def test_frames_carry_state_and_extra_signals(self):
        net = _small_net()
        sink = ListSink()
        windower = StreamWindower(net, window=30.0, sinks=[sink])
        windower.run(until=60.0)
        windower.finish()
        frames = [json.loads(line) for line in sink.lines]
        for frame in frames:
            assert frame["state"]["live_nodes"] == 20
            assert "peerlist.error_rate" in frame["signals"]
        assert frames[-1]["final"] is True
        # The final frame is cumulative: it contains every windowed span
        # plus whatever the trailing partial window drained.
        assert frames[-1]["spans"] >= sum(f["spans"] for f in frames[:-1])
        assert frames[-1]["verdicts"] == []  # no spec configured

    def test_finish_twice_raises(self):
        windower = StreamWindower(_small_net(), window=15.0)
        windower.run(until=15.0)
        windower.finish()
        with pytest.raises(ValueError, match="finished"):
            windower.finish()

    def test_stream_config_builds_snapshot_sink(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        config = StreamConfig(window=20.0, snapshot_path=str(path))
        net = _small_net()
        windower = config.build(net)
        windower.run(until=40.0)
        windower.finish()
        frames, _, skipped = load_frames_file(str(path))
        assert skipped == 0
        assert [f["window"] for f in frames] == [0, 1, 2]
        assert frames[-1]["final"] is True
