"""The backend-neutral kernel surface: SimClock delegation, the shared
NodeRuntime ABC, and the slotted wire types."""

import pytest

from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel import Clock, NodeRuntime, SimClock
from repro.net.message import Message
from repro.sim.engine import Simulator


def test_sim_clock_delegates_now_and_schedule():
    sim = Simulator()
    clock = SimClock(sim)
    assert isinstance(clock, Clock)
    fired = []
    clock.schedule(3.0, fired.append, "a")
    handle = clock.schedule(5.0, fired.append, "b")
    handle.cancel()
    assert not handle.active
    sim.run(until=10.0)
    assert fired == ["a"]
    assert clock.now == pytest.approx(10.0)


def test_sim_clock_every_matches_simulator_periodic():
    sim = Simulator()
    clock = SimClock(sim)
    ticks = []
    task = clock.every(2.0, lambda: ticks.append(clock.now), start_delay=1.0)
    sim.run(until=7.5)
    assert ticks == [1.0, 3.0, 5.0, 7.0]
    task.cancel()
    sim.run(until=20.0)
    assert len(ticks) == 4


def test_sim_clock_every_validations_mirror_the_kernel_contract():
    from repro.sim.engine import SimulationError

    clock = SimClock(Simulator())
    with pytest.raises(SimulationError):
        clock.every(0.0, lambda: None)
    with pytest.raises(SimulationError):
        clock.every(1.0, lambda: None, jitter=1.0)
    with pytest.raises(SimulationError):
        clock.every(1.0, lambda: None, jitter=0.1)  # jitter needs an rng


def test_all_backends_implement_the_kernel_abc():
    from repro.core.runtime import PartitionedRuntime, SimRuntime
    from repro.live.runtime import RealtimeRuntime
    from repro.net.latency import PairwiseLatencyModel

    assert issubclass(NodeRuntime, Clock)
    assert issubclass(SimRuntime, NodeRuntime)
    assert issubclass(RealtimeRuntime, NodeRuntime)
    # The partitioned coordinator hands each node a NodeRuntime view of
    # its LP — the node-facing surface is the kernel ABC there too.
    part = PartitionedRuntime(nranks=2, topology=PairwiseLatencyModel())
    view = part.runtime_for(7, "addr-7")
    assert isinstance(view, NodeRuntime)


def test_pointer_and_message_are_slotted():
    ptr = Pointer(NodeId(1, 4), "127.0.0.1:9000", 0)
    msg = Message(src=1, dst=2, kind="probe")
    for obj in (ptr, msg):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.stuffed_attribute = 1


def test_pointer_copy_still_round_trips_with_slots():
    ptr = Pointer(NodeId(1, 4), 9, 2, attached_info={"x": 1},
                  seen_join_time=1.0, last_refresh=2.0, last_event_seq=5)
    dup = ptr.copy()
    assert dup == ptr and dup is not ptr
    assert dup.attached_info == {"x": 1}
