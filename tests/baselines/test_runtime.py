"""Executable baseline runtimes: determinism, telemetry frames, spans.

Every baseline network must honor the same contract the PeerWindow
network does: seeded runs are byte-identical, spans validate against
the export schema, and a :class:`~repro.obs.stream.StreamWindower`
folds them into schema-valid ``repro.telemetry`` v1 frames.
"""

import json

import pytest

from repro.baselines.pushpull import PushPullGossipNetwork
from repro.baselines.runtime import (
    ExplicitProbeNetwork,
    GossipNetwork,
    OneHopNetwork,
    RandomWalkNetwork,
)
from repro.obs.export import spans_to_jsonl, validate_span_lines
from repro.obs.stream import StreamWindower, frame_line, load_frames

NETWORKS = [
    GossipNetwork,
    PushPullGossipNetwork,
    OneHopNetwork,
    RandomWalkNetwork,
    ExplicitProbeNetwork,
]

FRAME_KEYS = (
    "window", "t0", "t1", "final", "taps", "spans", "span_counts",
    "status_counts", "counters", "mcast", "join", "probe", "obituaries",
    "signals", "breaches", "verdicts", "healthy", "state",
)


def _run(cls, n=16, seed=3, until=120.0, churn=True):
    net = cls(n, master_seed=seed, observability=True)
    if churn:
        net.run(until=until / 3)
        net.crash(net.live_keys()[0])
        net.run(until=2 * until / 3)
        net.join()
    net.run(until=until)
    return net


class TestDeterminism:
    @pytest.mark.parametrize("cls", NETWORKS)
    def test_same_seed_byte_identical(self, cls):
        a = _run(cls)
        b = _run(cls)
        assert spans_to_jsonl(a.spans()) == spans_to_jsonl(b.spans())
        assert json.dumps(a.metrics_snapshot(), sort_keys=True) == \
            json.dumps(b.metrics_snapshot(), sort_keys=True)

    @pytest.mark.parametrize("cls", [GossipNetwork, RandomWalkNetwork])
    def test_different_seed_differs(self, cls):
        a = _run(cls, seed=3)
        b = _run(cls, seed=4)
        assert spans_to_jsonl(a.spans()) != spans_to_jsonl(b.spans())


class TestSpans:
    @pytest.mark.parametrize("cls", NETWORKS)
    def test_span_export_validates(self, cls):
        net = _run(cls)
        lines = spans_to_jsonl(net.spans()).splitlines()
        assert validate_span_lines(lines) == []


class TestFrames:
    @pytest.mark.parametrize("cls", NETWORKS)
    def test_windower_folds_schema_valid_frames(self, cls):
        net = cls(16, master_seed=3, observability=True)
        windower = StreamWindower(net, window=30.0)
        windower.run(90.0)
        final = windower.finish()
        assert final["final"] is True
        lines = [frame_line(final)]
        frames, _, skipped = load_frames(lines)
        assert skipped == 0
        for key in FRAME_KEYS:
            assert key in frames[0], f"{cls.__name__} frame missing {key}"
        assert frames[0]["state"]["live_nodes"] == 16


class TestBehavior:
    def test_gossip_disseminates_death(self):
        net = _run(GossipNetwork, n=20, until=180.0)
        # every survivor eventually learns of the crash; the peer-list
        # error rate stays small once gossip has flooded the obituary
        assert net.mean_error_rate() < 0.2
        snap = net.metrics_snapshot()
        assert snap["counters"].get("mcast.received", 0) > 0

    def test_explicit_probe_costs_dominate(self):
        gossip = _run(GossipNetwork, churn=False)
        probing = _run(ExplicitProbeNetwork, churn=False)
        assert probing.total_bits() > 3 * gossip.total_bits()

    def test_random_walk_is_stale(self):
        lazy = _run(RandomWalkNetwork, n=20, until=180.0)
        eager = _run(GossipNetwork, n=20, until=180.0)
        assert lazy.mean_error_rate() >= eager.mean_error_rate()

    def test_onehop_leader_serves_events(self):
        net = _run(OneHopNetwork, n=16, until=180.0)
        snap = net.metrics_snapshot()
        assert snap["counters"].get("report.served", 0) >= 1
        assert net.mean_error_rate() < 0.2

    def test_pushpull_pull_path_runs(self):
        net = _run(PushPullGossipNetwork, n=16, until=180.0)
        snap = net.metrics_snapshot()
        assert snap["counters"].get("pull.exchanges", 0) > 0
        # anti-entropy repairs what fanout-1 push misses
        assert net.mean_error_rate() < 0.2

    def test_join_downloads_membership(self):
        net = GossipNetwork(12, master_seed=7, observability=True)
        net.run(until=30.0)
        key = net.join()
        net.run(until=40.0)
        member = net.nodes[key]
        assert member.alive
        assert len(member.known) >= 11


class TestOracleMeasurement:
    def test_one_live_set_per_measurement(self, monkeypatch):
        """``mean_*`` build the oracle's live set once, not once per
        member (counted, not timed), and agree with the per-member
        methods an outside caller uses."""
        net = GossipNetwork(300, master_seed=1, observability=False)
        net.run(until=10.0)
        net.crash(net.live_keys()[0])
        members = net.live_nodes()
        error = sum(net.member_error_rate(mem) for mem in members) / len(members)
        complete = sum(net.member_completeness(mem) for mem in members) / len(members)

        calls = []
        live_keys = net.live_keys
        monkeypatch.setattr(net, "live_keys", lambda: calls.append(1) or live_keys())
        assert net.mean_error_rate() == pytest.approx(error, rel=1e-12)
        assert net.mean_completeness() == pytest.approx(complete, rel=1e-12)
        assert len(calls) == 2
