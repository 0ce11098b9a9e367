"""What a tournament costs, counted rather than timed.

The detector's cost is per tick, not per probe, and the scorecard's tree
columns come from the spans that can be in a tree.  Every assertion here
is a count the program makes itself (events executed, calls made), so it
reads the same on any host; each fails at the commit before the change
it pins.
"""

from unittest import mock

import pytest

from repro.baselines.explicit_probe import ExplicitProbeNetwork
from repro.compare import TournamentConfig, contestant_names, run_tournament
from repro.obs import analyze
from repro.obs.trace import Observability, Span
from tests.baselines.test_tick_batching import recorded_contestants


def test_explicit_probe_executes_events_per_tick_not_per_probe():
    net = ExplicitProbeNetwork(60, master_seed=2, observability=True)
    net.run(until=40.0)
    for rank in (3, 20, 41):
        net.crash(net.live_keys()[rank])
    net.run(until=120.0)
    probes = [s for s in net.spans() if s.name == "probe"]
    ticks = len({(s.node, s.start) for s in probes})
    timeouts = sum(1 for s in probes if s.status == "timeout")
    assert ticks >= 200 and timeouts >= 100
    # One event per tick, at most one ack event per tick, one per timeout.
    assert net.sim.events_executed <= 2 * ticks + timeouts
    assert len(probes) > 10 * net.sim.events_executed


@pytest.fixture(scope="module")
def tournament_spans():
    """name -> network of a small six-contestant tournament, plus the id
    of every :class:`Span` the run built and every whole-log merge."""
    built, merges = [], []
    init, merge = Span.__init__, Observability.spans

    def counting_init(self, trace_id, span_id, *args, **kwargs):
        built.append(span_id)
        init(self, trace_id, span_id, *args, **kwargs)

    def counting_merge(self):
        merges.append(self)
        return merge(self)

    cfg = TournamentConfig(
        contestants=tuple(contestant_names()), n_nodes=24, duration=90.0,
        window=30.0, seeds=(1,),
    )
    with recorded_contestants() as nets, \
            mock.patch.object(Span, "__init__", counting_init), \
            mock.patch.object(Observability, "spans", counting_merge):
        doc = run_tournament(cfg)
    return doc, {net.name: net for net in nets}, built, merges


def test_measure_builds_only_tree_candidates(tournament_spans):
    """The scorecard counts spans in the store and builds a :class:`Span`
    only for what a tree can hold: a span with a parent, or a root."""
    doc, nets, built, merges = tournament_spans
    assert len(doc["rows"]) == len(nets) == 6
    assert merges == []
    candidates = [
        s.span_id for net in nets.values() for s in net.spans()
        if s.parent_id is not None or s.name == "mcast.root"
    ]
    assert sorted(built) == sorted(candidates)
    assert sum(row["spans_total"] for row in doc["rows"]) > 3 * len(built)


def _trees_over_every_span(spans):
    """The definition without the filter: walk a forest of *all* spans."""
    forest = analyze.TraceForest(spans)
    roots = sorted(
        (s for s in spans if s.name == "mcast.root"),
        key=lambda s: (s.start, s.span_id),
    )
    return [
        [s.span_id for s in forest.descendants(root)
         if s.name in ("mcast.root", "mcast.hop")]
        for root in roots
    ]


@pytest.mark.parametrize("name", contestant_names())
def test_scorecard_trees_are_the_analyzer_trees(tournament_spans, name):
    doc, nets, _, _ = tournament_spans
    spans = nets[name].spans()
    trees = analyze.multicast_trees(spans)
    assert trees == analyze.analyze_spans(spans).trees
    assert [[s.span_id for s in t.members] for t in trees] == \
        _trees_over_every_span(spans)
    row = next(r for r in doc["rows"] if r["contestant"] == name)
    assert row["mcast_trees"] == len(trees)
    assert row["mcast_max_depth"] == max((t.depth for t in trees), default=0)
    assert row["spans_total"] == len(spans)
    if name not in ("random-walk", "explicit-probe"):  # those never multicast
        assert trees and row["collection_latency_s"] is not None
