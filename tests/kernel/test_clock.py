"""The backend-neutral kernel surface: the shared NodeRuntime ABC, the
one ``schedule`` contract both clocks keep, and the slotted wire types."""

import asyncio
import math

import pytest

from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.kernel import Clock, NodeRuntime
from repro.net.message import Message


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


async def _sim_clock():
    from repro.core.runtime import SimRuntime
    from repro.net.latency import UniformLatencyModel
    from repro.net.transport import Transport
    from repro.sim.engine import SimulationError, Simulator

    sim = Simulator()

    async def advance(seconds):
        sim.run(until=sim.now + seconds)

    return SimRuntime(sim, Transport(sim, UniformLatencyModel())), advance, SimulationError


async def _realtime_clock():
    from repro.live.clock import RealtimeClock

    return RealtimeClock(), asyncio.sleep, ValueError


@pytest.mark.parametrize("backend", [_sim_clock, _realtime_clock], ids=["sim", "realtime"])
def test_both_clocks_keep_one_schedule_contract(backend):
    """Timers fire in delay order; ``cancel`` is idempotent and a no-op
    once fired; ``active`` holds until then; a delay that is not ``>= 0``
    (negative, or NaN) is refused and leaves no timer behind."""

    async def scenario():
        clock, advance, refused = await backend()
        assert isinstance(clock, Clock)
        fired = []
        clock.schedule(0.02, fired.append, "b")
        first = clock.schedule(0.01, fired.append, "a")
        dropped = clock.schedule(0.01, fired.append, "dropped")
        for bad in (-0.01, math.nan):
            with pytest.raises(refused):
                clock.schedule(bad, fired.append, "bad")
        dropped.cancel()
        dropped.cancel()
        assert first.active and not dropped.active
        await advance(0.1)
        assert fired == ["a", "b"]
        assert not first.active
        first.cancel()  # a fired handle: nothing to undo
        assert fired == ["a", "b"]

    asyncio.run(scenario())


@pytest.mark.parametrize("backend", [_sim_clock, _realtime_clock], ids=["sim", "realtime"])
def test_both_clocks_keep_one_rearm_contract(backend):
    """``rearm`` queues a fired handle's callback again, with its args; it
    is refused by name while the handle is pending and once it was
    cancelled, and for a delay that is not ``>= 0``; a ``cancel`` after a
    ``rearm`` cancels the re-armed firing."""

    async def scenario():
        clock, advance, refused = await backend()
        fired = []
        loop = clock.schedule(0.01, fired.append, "tick")
        with pytest.raises(refused, match="pending"):
            loop.rearm(0.01)
        await advance(0.05)
        assert fired == ["tick"] and not loop.active
        for bad in (-0.01, math.nan):
            with pytest.raises(refused):
                loop.rearm(bad)
        loop.rearm(0.01)
        assert loop.active
        await advance(0.05)
        assert fired == ["tick", "tick"]
        loop.rearm(0.01)
        loop.cancel()
        assert not loop.active
        await advance(0.05)
        assert fired == ["tick", "tick"]
        with pytest.raises(refused, match="cancelled"):
            loop.rearm(0.01)

    asyncio.run(scenario())


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
