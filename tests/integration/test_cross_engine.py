"""Cross-engine validation: the detailed protocol engine and the scalable
bookkeeping engine must agree where their scales overlap.

This is the license for trusting 100,000-node scalable results: at a few
hundred nodes, the full wire-protocol simulation and the centralized
bookkeeping produce the same level structure and peer-list sizes.
"""

import numpy as np
import pytest

from repro.core.analytic import CostModel, stationary_level
from repro.core.config import ProtocolConfig
from repro.core.levels import LevelController
from repro.core.protocol import PeerWindowNetwork
from repro.experiments.predict import system_event_rate
from repro.experiments.scalable import ScalableParams, ScalableSim
from repro.workloads.bandwidth_dist import (
    GnutellaBandwidthDistribution,
    threshold_from_bandwidth,
)


class TestLevelAgreement:
    def test_seeded_levels_match_cost_model(self):
        """The detailed engine's seeding and the scalable engine's level
        assignment both sit on the §2 stationary point."""
        n = 200
        rng = np.random.default_rng(17)
        bws = GnutellaBandwidthDistribution().sample(rng, n)
        thresholds = threshold_from_bandwidth(bws)
        mean_lifetime = 135 * 60.0

        net = PeerWindowNetwork(
            config=ProtocolConfig(id_bits=16, multicast_processing_delay=0.1),
            master_seed=1,
        )
        net.seed_nodes([float(t) for t in thresholds], mean_lifetime_s=mean_lifetime)
        detailed_hist = net.level_histogram()

        cost0 = CostModel(mean_lifetime_s=mean_lifetime).level_cost(n, 0)
        analytic_hist = {}
        for t in thresholds:
            lvl = stationary_level(cost0, float(t), 16)
            analytic_hist[lvl] = analytic_hist.get(lvl, 0) + 1
        assert detailed_hist == dict(sorted(analytic_hist.items()))

    def test_scalable_levels_match_analytic_at_seed(self):
        p = ScalableParams(n_target=20_000, seed=2, use_transit_stub=False)
        sim = ScalableSim(p)
        sim.seed_population()
        # At seed time the engine uses the analytic rate 2N/L.
        cost0 = system_event_rate(p.n_target, sim.lifetimes.mean) * p.event_bits
        slots = np.flatnonzero(sim.alive)
        levels = sim.levels[slots].tolist()
        assert levels == [
            stationary_level(cost0, t, p.max_level) for t in sim.thresholds[slots].tolist()
        ]
        assert len(set(levels)) > 2

    @pytest.mark.parametrize("factor", [0.3, 1.0, 3.0])
    def test_relevel_sweep_is_the_controller_without_its_hold(self, factor):
        """One ``_relevel_tick`` moves each live node as a fresh
        ``LevelController`` (no previous shift to hold against) decides at
        the node's cost, clipped to ``[0, max_level]``."""
        p = ScalableParams(n_target=20_000, seed=2, use_transit_stub=False)
        sim = ScalableSim(p)
        sim.seed_population()
        sim._rate_estimate *= factor
        rate, slots = sim._rate_estimate, np.flatnonzero(sim.alive)
        before = sim.levels[slots].tolist()
        expected = []
        for level, t in zip(before, sim.thresholds[slots].tolist()):
            decision = LevelController(ProtocolConfig(), t).decide(
                level, rate * p.event_bits / 2.0**level
            )
            expected.append(min(max(level + decision.value, 0), p.max_level))
        sim._relevel_tick()
        assert sim.levels[slots].tolist() == expected
        assert (expected != before) == (factor != 1.0)


class TestSizeAgreement:
    def test_peer_list_sizes_match_between_engines(self):
        """Same membership → same (implicit vs explicit) peer-list sizes."""
        n = 150
        net = PeerWindowNetwork(
            config=ProtocolConfig(id_bits=16, multicast_processing_delay=0.1),
            master_seed=3,
        )
        keys = net.seed_nodes([1e9] * (n // 2) + [50.0] * (n - n // 2))
        for k in keys:
            node = net.node(k)
            oracle = net.oracle_peer_ids(node)
            assert len(node.peer_list) == len(oracle)
            # The scalable engine's size rule: count of live nodes sharing
            # the first `level` bits.
            count = sum(
                1
                for other in net.live_nodes()
                if other.node_id.shares_prefix(node.node_id, node.level)
            )
            assert len(node.peer_list) == count


class TestHeterogeneousBroadcastAgreement:
    def test_mixed_level_audiences_agree(self):
        """plan_tree (object planner) and binomial_broadcast (vectorized)
        are independent implementations of §4.2; on identical
        heterogeneous audiences they must deliver to the same set with the
        same root out-degree and depth profile."""
        from repro.core.multicast import plan_tree
        from repro.core.nodeid import NodeId
        from repro.experiments.scalable import binomial_broadcast

        rng = np.random.default_rng(23)
        bits = 20
        for trial in range(5):
            subject_val = int(rng.integers(0, 1 << bits))
            subject = NodeId(subject_val, bits)
            # Build an audience: members' eigenstrings prefix the subject.
            ids, levels = [], []
            seen = set()
            for _ in range(150):
                lvl = int(rng.integers(0, 6))
                prefix = (subject_val >> (bits - lvl)) << (bits - lvl) if lvl else 0
                value = prefix | int(rng.integers(0, 1 << (bits - lvl)))
                if value in seen or value == subject_val:
                    continue
                seen.add(value)
                ids.append(value)
                levels.append(lvl)
            ids_arr = np.array(ids, dtype=np.uint64)
            lv_arr = np.array(levels, dtype=np.int32)
            root_pos = int(np.lexsort((ids_arr, lv_arr))[0])

            depths, senders = binomial_broadcast(ids_arr, lv_arr, root_pos, bits)

            members = {
                v: (NodeId(v, bits), l) for v, l in zip(ids, levels)
            }
            root_id, root_level = members[int(ids_arr[root_pos])]
            tree = plan_tree(root_id, root_level, subject, members)

            tree_delivered = {n.node_id.value for n in tree.walk()}
            vec_delivered = {int(v) for v, d in zip(ids_arr, depths) if d >= 0}
            assert tree_delivered == vec_delivered
            tree_by_value = {n.node_id.value: n for n in tree.walk()}
            # Depth profiles agree member-by-member (same deterministic
            # strongest-first tie-breaking in both implementations).
            for v, d in zip(ids_arr, depths):
                if d >= 0:
                    assert tree_by_value[int(v)].depth == int(d)


class TestDelayModelAgreement:
    def test_tree_depths_agree(self):
        """The scalable engine's vectorized broadcast and the core
        planner produce identical depth profiles on the same audience."""
        from repro.core.multicast import plan_tree, tree_stats
        from repro.core.nodeid import NodeId
        from repro.experiments.scalable import binomial_broadcast

        rng = np.random.default_rng(5)
        bits = 16
        n = 300
        values = np.unique(rng.integers(0, 1 << bits, size=n, dtype=np.uint64))
        levels = np.zeros(values.size, dtype=np.int32)  # all top nodes
        subject = NodeId(int(values[7]), bits)

        depths, senders = binomial_broadcast(values, levels, 0, bits)
        members = {
            int(v): (NodeId(int(v), bits), 0) for v in values
        }
        tree = plan_tree(NodeId(int(values[0]), bits), 0, subject, members)
        stats = tree_stats(tree)

        # The planner excludes the subject; the vectorized version
        # includes it as a recipient.  Compare on the common set.
        subj_pos = int(np.flatnonzero(values == values[7])[0])
        mask = np.ones(values.size, dtype=bool)
        mask[subj_pos] = False
        assert stats["reach"] == int(mask.sum())
        assert stats["root_out_degree"] == pytest.approx(int(senders[0]), abs=1)
        assert stats["max_depth"] == pytest.approx(int(depths[mask].max()), abs=2)
