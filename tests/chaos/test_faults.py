"""FaultPlan: schedule building, deterministic replay, survivor floor."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosTrace, FaultPlan
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config

CONFIG = fast_config(probe_misses_to_fail=2, level_check_interval=1e6)


def make_net(n=12, seed=9):
    net = PeerWindowNetwork(config=CONFIG, master_seed=seed)
    net.seed_nodes([1e9] * n)
    net.run(until=5.0)
    return net


class TestPlanBuilding:
    def test_builders_chain_and_record_params(self):
        plan = FaultPlan(seed=4).crash(5.0, count=2).partition(10.0, duration=3.0)
        assert [e.kind for e in plan.events] == ["crash", "partition"]
        assert plan.events[0].get("count") == 2
        assert plan.events[1].get("duration") == 3.0

    def test_horizon_covers_durations_and_downtime(self):
        plan = FaultPlan()
        plan.partition(10.0, duration=4.0)
        plan.crash_recover(5.0, down_for=30.0)
        assert plan.horizon == pytest.approx(35.0)

    def test_describe_is_stable(self):
        plan = FaultPlan().pair_loss(1.0, pairs=3, rate=0.25, duration=2.0)
        assert plan.events[0].describe() == "pair_loss duration=2 pairs=3 rate=0.25"

    def test_install_rejects_partitioned_networks(self):
        plan = FaultPlan().crash(1.0)
        with pytest.raises(ValueError):
            plan.install(SimpleNamespace(sim=None), ChaosTrace())


class TestDeterminism:
    def run_once(self, plan_seed):
        net = make_net()
        trace = ChaosTrace()
        plan = FaultPlan(seed=plan_seed)
        plan.crash(3.0, count=2)
        plan.partition(8.0, groups=2, duration=1.5)
        plan.pair_loss(12.0, pairs=6, rate=0.5, duration=3.0)
        plan.install(net, trace)
        net.run(until=net.sim.now + 20.0)
        return trace.text()

    def test_same_seed_replays_bit_for_bit(self):
        assert self.run_once(0) == self.run_once(0)

    def test_different_seed_picks_different_victims(self):
        assert self.run_once(0) != self.run_once(1)


class TestSurvivorFloor:
    def test_oversized_crash_is_rejected_at_install(self):
        """A count exceeding the install-time population is a
        misconfigured plan, not a fault (ISSUE 7 satellite)."""
        net = make_net(n=6)
        with pytest.raises(ValueError, match="exceeds the population"):
            FaultPlan(seed=0).crash(1.0, count=100).install(net, ChaosTrace())

    def test_crash_never_extinguishes_population(self):
        """A full-population crash request still clamps to the
        fire-time survivor floor."""
        net = make_net(n=6)
        trace = ChaosTrace()
        FaultPlan(seed=0).crash(1.0, count=6).install(net, trace)
        net.run(until=net.sim.now + 5.0)
        assert len(net.live_nodes()) == FaultPlan.MIN_SURVIVORS

    def test_zombies_respect_the_floor(self):
        net = make_net(n=5)
        trace = ChaosTrace()
        FaultPlan(seed=0).zombie(1.0, count=5, duration=2.0).install(net, trace)
        net.run(until=net.sim.now + 2.0)
        zombies = sum(1 for k in net.nodes if net.transport.is_zombie(k))
        assert zombies == len(net.nodes) - FaultPlan.MIN_SURVIVORS


class TestReversals:
    def test_every_injection_reverses(self):
        """Each windowed fault clears itself: the transport ends the run
        with no partition, no pair loss, no duplication, scale 1 and no
        zombies."""
        net = make_net()
        trace = ChaosTrace()
        plan = FaultPlan(seed=2)
        plan.partition(1.0, duration=2.0)
        plan.pair_loss(1.5, pairs=5, rate=0.4, duration=2.0)
        plan.latency_spike(2.0, scale=2.5, duration=2.0)
        plan.slow(2.5, count=2, extra=0.2, duration=2.0)
        plan.zombie(3.0, count=1, duration=1.5)
        plan.duplicate(3.5, rate=0.3, duration=2.0)
        plan.install(net, trace)
        net.run(until=net.sim.now + 15.0)
        tr = net.transport
        assert not tr.partitioned
        assert tr._pair_loss == {}
        assert tr.duplication_rate == 0.0
        assert tr.latency_scale == 1.0
        assert tr._latency_extra == {}
        assert tr._zombies == set()

    def test_disruption_callback_fires_on_inject_and_reverse(self):
        net = make_net()
        times = []
        plan = FaultPlan(seed=0).partition(2.0, duration=3.0)
        plan.install(net, ChaosTrace(), on_disruption=times.append)
        net.run(until=net.sim.now + 10.0)
        assert times == [pytest.approx(7.0), pytest.approx(10.0)]
