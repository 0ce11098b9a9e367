"""Autonomic level shifting on the live protocol (§2, §4.3)."""


from repro.core.protocol import PeerWindowNetwork
from tests.conftest import build_network, fast_config


def heterogeneous_network(n=24, seed=2):
    """Half strong (effectively unconstrained), half weak nodes."""
    config = fast_config(level_check_interval=8.0)
    net = PeerWindowNetwork(config=config, master_seed=seed)
    specs = [1e9] * (n // 2) + [40.0] * (n - n // 2)
    keys = net.seed_nodes(specs, mean_lifetime_s=600.0)
    return net, keys


class TestSeededLevels:
    def test_heterogeneous_seed_levels(self):
        net, keys = heterogeneous_network()
        strong_levels = {net.node(k).level for k in keys[:12]}
        weak_levels = {net.node(k).level for k in keys[12:]}
        assert strong_levels == {0}
        assert all(l > 0 for l in weak_levels)

    def test_seed_peer_lists_match_levels(self):
        net, keys = heterogeneous_network()
        for k in keys:
            node = net.node(k)
            assert len(node.peer_list) == len(net.oracle_peer_ids(node))


class TestRuntimeShifts:
    def test_overloaded_node_lowers_level(self):
        """Drive one node's measured input above its threshold; the
        controller must lower the level (bigger level value, smaller list).
        """
        net, keys = build_network(16, settle=10.0)
        victim = net.node(keys[0])
        victim.controller.set_threshold(1.0)
        victim.threshold_bps = 1.0
        # Generate traffic so the EWMA sees load: joins/leaves cause
        # multicasts, probes are ongoing anyway.
        net.run(until=net.sim.now + 120.0)
        assert victim.level > 0
        assert victim.stats.level_lowers >= 1
        assert len(victim.peer_list) < len(net.live_nodes())

    def test_lower_level_change_propagates(self):
        """Every observer learns the victim's new level once the
        LEVEL_CHANGE multicasts complete (the controller's decision logic
        is unit-tested separately; here we drive the shift directly)."""
        net, keys = build_network(16, settle=10.0)
        victim = net.node(keys[0])
        victim._commit_lower()
        net.run(until=net.sim.now + 20.0)
        victim._commit_lower()
        net.run(until=net.sim.now + 60.0)
        # The victim's autonomic controller may meanwhile raise it back
        # (its cost is far below threshold); the invariant under test is
        # that observers converge to whatever the current level is.
        assert victim.stats.level_lowers + victim.stats.level_raises >= 0
        assert victim._seq >= 2  # at least our two forced changes announced
        observers = [net.node(k) for k in keys[1:] if k in net.nodes]
        levels_seen = [
            o.peer_list.get(victim.node_id).level
            for o in observers
            if o.peer_list.get(victim.node_id) is not None
        ]
        assert levels_seen
        assert all(l == victim.level for l in levels_seen)

    def test_bottoming_out_under_impossible_threshold(self):
        """A threshold below the probe-traffic floor cannot be met at any
        level; the controller descends without oscillating back."""
        net, keys = build_network(16, settle=10.0)
        victim = net.node(keys[0])
        victim.controller.set_threshold(1.0)
        victim.threshold_bps = 1.0
        net.run(until=net.sim.now + 100.0)
        assert victim.level >= 5
        assert victim.stats.level_raises == 0

    def test_idle_weak_node_raises_when_quiet(self):
        """A deep node whose measured cost is far below threshold raises
        (downloading the wider list from a stronger node first)."""
        net, keys = heterogeneous_network()
        net.run(until=30.0)
        weak = net.node(keys[-1])
        start_level = weak.level
        # Open the throttle: now the cost (probes only) is way below W.
        weak.controller.set_threshold(1e9)
        weak.threshold_bps = 1e9
        net.run(until=net.sim.now + 200.0)
        assert weak.level < start_level
        assert weak.stats.level_raises >= 1
        assert len(weak.peer_list) == len(net.oracle_peer_ids(weak))


class TestWarmup:
    def test_warmup_join_starts_weak_then_raises(self):
        config = fast_config(level_check_interval=8.0, warmup_extra_levels=2)
        net = PeerWindowNetwork(config=config, master_seed=4)
        keys = net.seed_nodes([1e9] * 16)
        net.run(until=20.0)
        new = net.add_node(1e9, bootstrap=keys[0])
        net.run(until=net.sim.now + 1.0)
        node = net.node(new)
        early_level = node.level
        net.run(until=net.sim.now + 60.0)
        assert early_level > 0  # joined weaker than the estimate
        assert node.level < early_level  # warm-up raised it
        assert node.level == 0
