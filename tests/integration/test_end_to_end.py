"""End-to-end churn soak on the detailed engine.

Runs a PeerWindow deployment under continuous Gnutella-style churn over
the transit-stub underlay and checks the paper's global health claims:
bounded error, live failure detection, stable population, working app
layer on top.
"""

import pytest

from repro.apps.guess import GuessSearch
from repro.core.protocol import PeerWindowNetwork
from repro.net.transit_stub import TransitStubTopology
from repro.workloads.attached_info import guess_attached_info
from repro.workloads.churn import ChurnProcess
from repro.workloads.lifetime import ExponentialLifetime
from tests.conftest import fast_config, small_transit_stub


@pytest.fixture(scope="module")
def soak():
    config = fast_config(level_check_interval=15.0, multicast_processing_delay=0.2)
    topo = TransitStubTopology(small_transit_stub(), seed=4)
    net = PeerWindowNetwork(config=config, topology=topo, master_seed=13)
    rng = net.streams.get("app-info")
    infos = guess_attached_info(rng, 400)
    n0 = 40
    keys = net.seed_nodes(
        [{"threshold_bps": 1e6, "attached_info": infos[i]} for i in range(n0)],
        mean_lifetime_s=300.0,
    )
    info_iter = iter(infos[n0:])

    def on_join(session):
        alive = [k for k in net.nodes if net.nodes[k].alive]
        if not alive:
            return None
        bootstrap = alive[int(net.streams.get("boot").integers(0, len(alive)))]
        return net.add_node(
            session.threshold_bps * 1e4,  # keep everyone comfortably level 0
            bootstrap=bootstrap,
            attached_info=next(info_iter, None),
        )

    def on_leave(key):
        node = net.nodes.get(key)
        if node is None or not node.alive:
            return
        # Half leave gracefully, half crash (§4.1 must catch these).
        if node.node_id.value % 2:
            net.leave(key)
        else:
            net.crash(key)

    churn = ChurnProcess(
        net.sim,
        net.streams.get("churn"),
        n_target=n0,
        on_join=on_join,
        on_leave=on_leave,
        lifetime_dist=ExponentialLifetime(mean=300.0),
    )
    churn.start()
    net.run(until=600.0)
    return net, churn


class TestSoak:
    def test_population_stays_near_target(self, soak):
        net, churn = soak
        assert 20 <= len(net.live_nodes()) <= 80

    def test_churn_actually_happened(self, soak):
        net, churn = soak
        assert churn.joins >= 30
        assert churn.leaves >= 30

    def test_mean_error_bounded(self, soak):
        net, _ = soak
        # Continuous churn keeps transient staleness in flight; the
        # detailed engine must hold the line well under 10%.
        assert net.mean_error_rate() < 0.10

    def test_no_dead_pointers_linger_long(self, soak):
        net, _ = soak
        net.run(until=net.sim.now + 60.0)
        live_ids = {n.node_id.value for n in net.live_nodes()}
        stale_total = sum(
            len(set(n.peer_list.ids()) - live_ids - {n.node_id.value})
            for n in net.live_nodes()
        )
        entries_total = sum(len(n.peer_list) for n in net.live_nodes())
        assert stale_total / max(entries_total, 1) < 0.05

    def test_app_layer_works_during_churn(self, soak):
        net, _ = soak
        node = net.live_nodes()[0]
        gs = GuessSearch(node, universe=2000)
        hits = sum(gs.query(k) is not None for k in range(30))
        assert gs.queries == 30  # queries run without errors

    def test_failure_detection_active(self, soak):
        net, _ = soak
        detections = sum(n.stats.failures_detected for n in net.nodes.values())
        assert detections >= 5
