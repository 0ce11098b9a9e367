"""Unit tests for the transport's chaos knobs (see ``repro.chaos``):
partition validation, asymmetric pair loss, duplication, latency
scaling, slow endpoints and zombies."""

import pytest

from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.transport import Transport
from repro.sim.engine import Simulator


def make_transport(latency=0.1, loss_rate=0.0):
    sim = Simulator()
    topo = UniformLatencyModel(latency=latency)
    return sim, Transport(sim, topo, loss_rate=loss_rate)


def registered(tr, *keys):
    got = {}
    for key in keys:
        got[key] = []
        tr.register(key, lambda m, k=key: got[k].append(m.kind))
    return got


class TestPartitionValidation:
    def test_overlapping_groups_rejected(self):
        sim, tr = make_transport()
        registered(tr, "a", "b", "c")
        with pytest.raises(ValueError) as err:
            tr.partition(["a", "b"], ["b", "c"])
        assert "more than one group" in str(err.value)
        assert "'b'" in str(err.value)
        assert not tr.partitioned  # rejected partitions install nothing

    def test_unregistered_keys_rejected(self):
        sim, tr = make_transport()
        registered(tr, "a", "b")
        with pytest.raises(ValueError) as err:
            tr.partition(["a"], ["b", "ghost"])
        assert "not registered" in str(err.value)
        assert "'ghost'" in str(err.value)
        assert not tr.partitioned

    def test_both_problems_reported_together(self):
        sim, tr = make_transport()
        registered(tr, "a", "b")
        with pytest.raises(ValueError) as err:
            tr.partition(["a", "a2"], ["a", "b"])
        msg = str(err.value)
        assert "more than one group" in msg and "not registered" in msg

    def test_valid_partition_installs(self):
        sim, tr = make_transport()
        registered(tr, "a", "b")
        tr.partition(["a"], ["b"])
        assert tr.partitioned
        tr.heal()
        assert not tr.partitioned


class TestPairLoss:
    def test_loss_is_directional(self):
        sim, tr = make_transport()
        got = registered(tr, "a", "b")
        tr.set_pair_loss("a", "b", 1.0)
        for _ in range(5):
            tr.send(Message("a", "b", "fwd"))
            tr.send(Message("b", "a", "rev"))
        sim.run()
        assert got["b"] == []  # a -> b fully dropped
        assert got["a"] == ["rev"] * 5  # reverse direction untouched

    def test_rate_zero_removes_entry(self):
        sim, tr = make_transport()
        got = registered(tr, "a", "b")
        tr.set_pair_loss("a", "b", 1.0)
        tr.set_pair_loss("a", "b", 0.0)
        tr.send(Message("a", "b", "ping"))
        sim.run()
        assert got["b"] == ["ping"]

    def test_clear_pair_loss(self):
        sim, tr = make_transport()
        got = registered(tr, "a", "b")
        tr.set_pair_loss("a", "b", 1.0)
        tr.clear_pair_loss()
        tr.send(Message("a", "b", "ping"))
        sim.run()
        assert got["b"] == ["ping"]

    def test_invalid_rate_rejected(self):
        sim, tr = make_transport()
        with pytest.raises(ValueError):
            tr.set_pair_loss("a", "b", 1.5)


class TestDuplication:
    def test_duplicates_delivered_and_counted(self):
        sim, tr = make_transport()
        got = registered(tr, "a", "b")
        tr.set_duplication(0.5)
        for _ in range(200):
            tr.send(Message("a", "b", "ping"))
        sim.run()
        assert len(got["b"]) == 200 + tr.duplicated
        assert 40 < tr.duplicated < 160  # ~100 expected

    def test_invalid_rate_rejected(self):
        sim, tr = make_transport()
        with pytest.raises(ValueError):
            tr.set_duplication(1.0)


class TestLatencyKnobs:
    def test_latency_scale_stretches_delivery(self):
        sim, tr = make_transport(latency=0.2)
        arrived = []
        tr.register("a", lambda m: None)
        tr.register("b", lambda m: arrived.append(sim.now))
        tr.set_latency_scale(3.0)
        tr.send(Message("a", "b", "ping"))
        sim.run()
        assert arrived == [pytest.approx(0.6)]

    def test_scale_below_one_rejected(self):
        sim, tr = make_transport()
        with pytest.raises(ValueError):
            tr.set_latency_scale(0.5)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        sim, tr = make_transport()
        with pytest.raises(ValueError, match="finite"):
            tr.set_latency_scale(scale)
        assert tr.latency_scale == 1.0

    def test_endpoint_delay_applies_both_directions(self):
        sim, tr = make_transport(latency=0.1)
        arrived = []
        tr.register("slow", lambda m: arrived.append(("to", sim.now)))
        tr.register("b", lambda m: arrived.append(("from", sim.now)))
        tr.set_endpoint_delay("slow", 0.4)
        tr.send(Message("b", "slow", "ping"))
        tr.send(Message("slow", "b", "ping"))
        sim.run()
        assert dict(arrived) == {"to": pytest.approx(0.5),
                                 "from": pytest.approx(0.5)}

    def test_endpoint_delay_zero_removes(self):
        sim, tr = make_transport(latency=0.1)
        arrived = []
        tr.register("a", lambda m: None)
        tr.register("b", lambda m: arrived.append(sim.now))
        tr.set_endpoint_delay("b", 0.4)
        tr.set_endpoint_delay("b", 0.0)
        tr.send(Message("a", "b", "ping"))
        sim.run()
        assert arrived == [pytest.approx(0.1)]

    def test_negative_delay_rejected(self):
        sim, tr = make_transport()
        with pytest.raises(ValueError):
            tr.set_endpoint_delay("a", -0.1)

    @pytest.mark.parametrize("extra", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, extra):
        sim, tr = make_transport()
        with pytest.raises(ValueError, match="finite"):
            tr.set_endpoint_delay("a", extra)
        assert not tr._latency_extra


class TestZombie:
    def test_zombie_receives_nothing_sends_nothing(self):
        sim, tr = make_transport()
        got = registered(tr, "z", "b")
        tr.set_zombie("z")
        tr.send(Message("b", "z", "to-zombie"))
        tr.send(Message("z", "b", "from-zombie"))
        sim.run()
        assert got["z"] == [] and got["b"] == []
        assert tr.dropped_zombie == 2

    def test_zombie_stays_registered(self):
        sim, tr = make_transport()
        registered(tr, "z")
        tr.set_zombie("z")
        assert tr.is_alive("z") and tr.is_zombie("z")

    def test_cure_restores_traffic(self):
        sim, tr = make_transport()
        got = registered(tr, "z", "b")
        tr.set_zombie("z")
        tr.set_zombie("z", False)
        tr.send(Message("b", "z", "ping"))
        sim.run()
        assert got["z"] == ["ping"]
        assert not tr.is_zombie("z")
