"""The backend-neutral kernel surface: the shared NodeRuntime ABC and the
slotted wire types."""

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
