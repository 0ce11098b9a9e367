"""Pointer dataclass tests."""

import pytest

from repro.core.errors import NodeIdError
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer


def make(level=1, info=None):
    return Pointer(
        node_id=NodeId.from_bitstring("1011"),
        address="addr",
        level=level,
        attached_info=info,
        seen_join_time=5.0,
        last_refresh=10.0,
        last_event_seq=3,
    )


class TestPointer:
    def test_eigenstring_follows_level(self):
        assert make(level=0).eigenstring == ""
        assert make(level=2).eigenstring == "10"

    def test_level_validation(self):
        with pytest.raises(NodeIdError):
            make(level=-1)
        with pytest.raises(NodeIdError):
            make(level=5)  # exceeds 4-bit id

    def test_copy_is_independent(self):
        original = make(info={"k": 1})
        clone = original.copy()
        clone.level = 3
        clone.last_refresh = 99.0
        assert original.level == 1
        assert original.last_refresh == 10.0

    def test_copy_with_overrides(self):
        clone = make().copy(level=2, last_refresh=42.0)
        assert clone.level == 2
        assert clone.last_refresh == 42.0
        assert clone.node_id == make().node_id
        assert clone.seen_join_time == 5.0

    def test_copy_shares_attached_info_reference(self):
        """copy() is shallow — attached info objects are shared, which is
        why senders must construct fresh payloads for mutable app data."""
        info = {"k": 1}
        original = make(info=info)
        clone = original.copy()
        assert clone.attached_info is info

    def test_copy_refuses_an_unknown_field_and_still_validates(self):
        with pytest.raises(TypeError):
            make().copy(levle=2)
        with pytest.raises(NodeIdError):
            make().copy(level=9)
        tampered = make()
        tampered.level = 9  # past __post_init__
        with pytest.raises(NodeIdError):
            tampered.copy()
        assert make().copy() == make() and make().copy() is not make()
