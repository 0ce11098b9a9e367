"""InvariantMonitor: safety vs. quiescence-gated convergence checking."""

from __future__ import annotations

import pytest

from repro.chaos import InvariantMonitor, quiescence_bound
from repro.chaos.scenarios import CHAOS_CONFIG
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config

CONFIG = fast_config(probe_misses_to_fail=2, level_check_interval=1e6)


def make_net(n=12, seed=3):
    net = PeerWindowNetwork(config=CONFIG, master_seed=seed)
    keys = net.seed_nodes([1e9] * n)
    net.run(until=5.0)
    return net, keys


def kinds(violations):
    return {v.invariant for v in violations}


class TestQuiescenceBound:
    def test_chaos_config_bound(self):
        # detect (8 + 3*2) + disseminate (2*4 + 3*2 + 16*0.25) + slack (8)
        assert quiescence_bound(CHAOS_CONFIG) == pytest.approx(40.0)

    def test_bound_scales_with_repair_budget(self):
        from dataclasses import replace

        slower = replace(CHAOS_CONFIG, probe_misses_to_fail=5, report_timeout=8.0)
        assert quiescence_bound(slower) > quiescence_bound(CHAOS_CONFIG)


class TestHealthyNetwork:
    def test_converged_network_is_violation_free(self):
        net, _ = make_net()
        monitor = InvariantMonitor(net, quiescence=0.0)
        assert monitor.check() == []
        assert monitor.safety_checks == 1
        assert monitor.convergence_checks == 1


class TestConvergenceViolations:
    def test_silent_crash_shows_stale_pointers(self):
        net, keys = make_net()
        net.crash(keys[4])
        monitor = InvariantMonitor(net, quiescence=0.0)
        found = monitor.check()  # before detection: everyone is stale
        # Every live node still points at the corpse, and its ring
        # predecessor's expected successor has shifted past it.
        assert kinds(found) == {"stale-pointer", "ring-closed"}
        stale = [v for v in found if v.invariant == "stale-pointer"]
        assert len(stale) == len(net.live_nodes())

    def test_removed_peer_shows_missing_and_ring_break(self):
        net, keys = make_net()
        holder = net.node(keys[0])
        succ = holder.peer_list.ring_successor(holder.node_id)
        holder.peer_list.remove(succ.node_id)
        monitor = InvariantMonitor(net, quiescence=0.0)
        found = monitor.check()
        assert kinds(found) == {"missing-peer", "ring-closed"}
        assert {v.node_key for v in found} == {keys[0]}


class TestQuiescenceGating:
    def test_disruption_holds_convergence_checks(self):
        net, keys = make_net()
        net.crash(keys[4])  # convergence is now (transiently) false
        monitor = InvariantMonitor(net)  # config-derived quiescence
        monitor.note_disruption()
        assert monitor.check() == []  # safety only: no false alarm
        assert monitor.safety_checks == 1
        assert monitor.convergence_checks == 0

    def test_open_faults_hold_convergence_even_when_clock_elapsed(self):
        net, keys = make_net()
        monitor = InvariantMonitor(net, quiescence=0.0)
        net.transport.set_zombie(keys[2], True)
        assert not monitor.quiescent
        monitor.check()
        assert monitor.convergence_checks == 0
        net.transport.set_zombie(keys[2], False)
        assert monitor.quiescent

    def test_quiescence_clock_restarts_on_note(self):
        net, _ = make_net()
        monitor = InvariantMonitor(net, quiescence=10.0)
        monitor.note_disruption()
        assert not monitor.quiescent
        net.run(until=net.sim.now + 11.0)
        assert monitor.quiescent


class TestSafetyViolations:
    def test_out_of_prefix_pointer_flagged(self):
        net, keys = make_net()
        node = net.node(keys[1])
        # A level mismatch makes some held pointers unrecognizable from
        # their (nodeId, level) pair alone.
        node.ctx.level = 4
        monitor = InvariantMonitor(net, quiescence=1e9)
        found = monitor.check()
        assert "audience-recognizable" in kinds(found)
        assert all(v.node_key == keys[1] for v in found)

    def test_violation_cap(self):
        net, keys = make_net()
        net.crash(keys[3])
        monitor = InvariantMonitor(net, quiescence=0.0, max_violations=4)
        monitor.check()
        monitor.check()
        assert len(monitor.violations) == 4


class TestPeriodicTask:
    def test_start_checks_on_interval(self):
        net, _ = make_net()
        monitor = InvariantMonitor(net, interval=2.0, quiescence=0.0)
        monitor.start()
        net.run(until=net.sim.now + 9.0)
        monitor.stop()
        assert monitor.safety_checks == 4
        assert monitor.violations == []
