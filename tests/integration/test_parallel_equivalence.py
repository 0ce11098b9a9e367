"""Sequential <-> partitioned equivalence: the conservative-PDES contract.

A fixed-seed :class:`~repro.core.protocol.PeerWindowNetwork` run on the
sequential engine and the same run partitioned across logical processes
(``parallel=N``) must produce *bit-for-bit* identical
results — identical protocol counters, transport totals, and level
histograms.  This is the correctness property conservative parallel DES
must preserve (results cannot depend on the partitioning), and it is the
ONSP paper's own validation methodology.

The topology is :class:`~repro.net.latency.PairwiseLatencyModel`: its
latency is a pure function of the endpoint pair (partition-safe) and its
per-pair spread removes simultaneous-delivery ties whose queue order
would otherwise be partition-dependent.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel, UniformLatencyModel
from repro.net.topology import Topology

CONFIG = ProtocolConfig(
    id_bits=16,
    probe_interval=8.0,
    probe_timeout=2.0,
    report_timeout=4.0,
    multicast_ack_timeout=2.0,
    level_check_interval=45.0,
    multicast_processing_delay=1.0,
)


def run_scenario(config=CONFIG, **network_kwargs):
    """Seeded population + deterministic churn, identical in every mode."""
    net = PeerWindowNetwork(
        config=config,
        master_seed=11,
        topology=PairwiseLatencyModel(),
        **network_kwargs,
    )
    keys = list(net.seed_nodes([1e9] * 30))
    net.run(until=20.0)

    def live():
        return [k for k in keys if k in net.nodes and net.nodes[k].alive]

    net.crash(live()[3])
    net.run(until=40.0)
    keys.append(net.add_node(1e9, bootstrap=live()[0]))
    net.run(until=60.0)
    net.leave(live()[5])
    net.run(until=80.0)
    net.crash(live()[7])
    net.run(until=100.0)
    keys.append(net.add_node(1e9, bootstrap=live()[2]))
    net.run(until=200.0)
    return net


class TestEquivalence:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_scenario()

    def test_partitioned_matches_sequential(self, sequential):
        par = run_scenario(parallel=4)
        assert par.stats_summary() == sequential.stats_summary()
        assert par.level_histogram() == sequential.level_histogram()

    def test_rank_count_does_not_matter(self, sequential):
        two = run_scenario(parallel=2)
        assert two.stats_summary() == sequential.stats_summary()

    def test_single_rank_partition(self, sequential):
        one = run_scenario(parallel=1)
        assert one.stats_summary() == sequential.stats_summary()


class TestLossEquivalence:
    """Message loss is hash-derived per message (loss seed + per-source
    sequence), not RNG-drawn, so the bit-for-bit guarantee must hold with
    ``loss_rate > 0`` — in every partitioning."""

    @pytest.fixture(scope="class")
    def lossy_sequential(self):
        return run_scenario(loss_rate=0.05)

    def test_loss_actually_drops(self, lossy_sequential):
        assert lossy_sequential.stats_summary()["transport_lost"] > 0

    def test_partitioned_matches_sequential_under_loss(self, lossy_sequential):
        par = run_scenario(loss_rate=0.05, parallel=4)
        assert par.stats_summary() == lossy_sequential.stats_summary()
        assert par.level_histogram() == lossy_sequential.level_histogram()

    def test_loss_pattern_tracks_master_seed(self, lossy_sequential):
        """Different master seed -> different hashed drop pattern (the
        decision stream is seeded, not constant)."""
        other = PeerWindowNetwork(
            config=CONFIG,
            master_seed=12,
            topology=PairwiseLatencyModel(),
            loss_rate=0.05,
        )
        other.seed_nodes([1e9] * 30)
        other.run(until=200.0)
        assert (
            other.stats_summary()["transport_lost"]
            != lossy_sequential.stats_summary()["transport_lost"]
            or other.stats_summary() != lossy_sequential.stats_summary()
        )


class TestPartitionedModeGuards:
    def test_invalid_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="loss_rate"):
            PeerWindowNetwork(
                config=CONFIG,
                topology=PairwiseLatencyModel(),
                parallel=2,
                loss_rate=1.0,
            )

    def test_impure_topology_rejected(self):
        class NoPairLatency(UniformLatencyModel):
            pair_latency = Topology.pair_latency  # the base class refuses

        with pytest.raises(NotImplementedError):
            PeerWindowNetwork(config=CONFIG, topology=NoPairLatency(), parallel=2)

    def test_excessive_lookahead_rejected(self):
        with pytest.raises(ValueError, match="lookahead"):
            PeerWindowNetwork(
                config=CONFIG,
                topology=PairwiseLatencyModel(base=0.05),
                parallel=2,
                lookahead=0.5,
            )

    def test_run_needs_until(self):
        net = PeerWindowNetwork(
            config=CONFIG, topology=PairwiseLatencyModel(), parallel=2
        )
        net.seed_nodes([1e9] * 4)
        with pytest.raises(ValueError, match="until"):
            net.run()

    def test_now_property_tracks_partitioned_clock(self):
        net = PeerWindowNetwork(
            config=CONFIG, topology=PairwiseLatencyModel(), parallel=2
        )
        net.seed_nodes([1e9] * 4)
        net.run(until=12.5)
        assert net.now == pytest.approx(12.5)
