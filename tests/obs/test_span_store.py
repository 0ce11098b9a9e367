"""The span store.

A retained span is a row of per-field columns in its node's
:class:`~repro.obs.trace.NodeObs`, not an object.  What that buys — a
closed span adds no object the cyclic collector tracks and a bounded
number of bytes; a disabled view holds no columns — is counted in the
``closed_spans`` and ``disabled_views`` rows of ``tests/test_costs.py``.
What it relies on is pinned here: every producer writes a span's attrs
before the ``end()`` that freezes them, and a telemetry tap's rows fold
exactly as the same spans replayed do.
"""

from types import MappingProxyType
from unittest import mock

import pytest

from repro.chaos import BYZANTINE_SCENARIOS
from repro.chaos.byzantine import ByzantineRunner
from repro.compare import TournamentConfig, contestant_names, run_tournament
from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.obs.stream import TelemetryBus, WindowBucket
from repro.obs.trace import NodeObs
from tests.baselines.test_tick_batching import recorded_contestants
from tests.test_costs import check


@pytest.mark.costs
def test_closed_spans_add_no_tracked_objects():
    check("closed_spans", 20_000, "|tracked|")


@pytest.mark.costs
def test_a_closed_probe_costs_at_most_150_bytes():
    check("closed_spans", 20_000, "bytes/span")


@pytest.mark.costs
def test_a_disabled_view_allocates_only_itself_and_its_registry():
    check("disabled_views", 1000)


def test_producers_write_attrs_only_before_the_end():
    """``end()`` freezes a span's attrs into its row, so a later write
    would be lost.  Here an ended span's attrs turn read-only: a late
    write anywhere in a tournament or a hardened byzantine run raises."""
    end = NodeObs.end

    def freezing_end(self, span, t, status="ok"):
        end(self, span, t, status)
        span.attrs = MappingProxyType(span.attrs)

    cfg = TournamentConfig(
        contestants=tuple(contestant_names()), n_nodes=24, duration=90.0,
        window=30.0, seeds=(1,),
    )
    with mock.patch.object(NodeObs, "end", freezing_end):
        with recorded_contestants() as nets:
            run_tournament(cfg)
        byzantine = ByzantineRunner(
            BYZANTINE_SCENARIOS["level-inflation"], observe=True
        ).run()
    spans = [s for net in nets for s in net.spans()] + byzantine.spans
    written = {
        (s.name, key) for s in spans for key in ("fanout", "steps", "demoted_to")
        if key in s.attrs and s.end is not None
    }
    # Every site that writes attrs after its start ran to its end.
    assert {("mcast.root", "fanout"), ("mcast.hop", "fanout"),
            ("walk", "steps"), ("audit", "demoted_to")} <= written


def test_tap_rows_fold_as_the_replayed_spans():
    net = PeerWindowNetwork(
        config=ProtocolConfig(id_bits=16, level_check_interval=45.0),
        topology=PairwiseLatencyModel(), master_seed=5, observability=True,
    )
    bus = TelemetryBus()
    net.obs.attach_bus(bus)
    keys = net.seed_nodes([4000.0] * 20)
    net.run(until=30.0)
    net.crash(keys[3])
    net.add_node(4000.0, bootstrap=keys[0])
    net.run(until=90.0)
    tapped = WindowBucket()
    for _, facts, _counts in bus.drain():
        tapped.add_node(facts, {})
    replayed = WindowBucket()
    by_node = {}
    for span in net.spans():
        by_node.setdefault(str(span.node), []).append(span)
    for node in sorted(by_node):
        replayed.add_node(
            [(s.name, s.status, s.attrs) for s in by_node[node] if s.end is not None],
            {},
        )
    assert tapped.mcast_spans and tapped.probes and tapped.join_ok
    for field in WindowBucket.__slots__:
        assert getattr(tapped, field) == getattr(replayed, field), field
