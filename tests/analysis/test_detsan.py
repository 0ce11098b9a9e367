"""DetSan, the runtime cross-validator: a clean protocol run reports
nothing, a planted payload-aliasing bug is caught where node state still
holds a Pointer (and cannot arise in the columnar lists), the clock/RNG
tripwires fire only from simulator code, and detach restores every
patched global."""

import random
import time
import types

import numpy as np
import pytest

from repro.analysis.detsan import (
    DetSan,
    _is_mutable_payload,
    _payload_objects,
    detsan_requested,
)
from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS
from repro.core.events import EventKind, EventRecord
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.core.topnodes import CrossPartTopList, TopNodeList
from tests.core.test_part_merge import build_two_parts


# -- tagging discriminator -------------------------------------------------


def make_pointer(value=0b1010, bits=4):
    return Pointer(node_id=NodeId(value, bits), address=value, level=1)


def make_event():
    return EventRecord(
        kind=EventKind.JOIN,
        subject_id=NodeId(3, 4),
        subject_level=1,
        subject_address=3,
        seq=0,
        origin_time=0.0,
    )


def test_mutable_payload_discrimination():
    ptr = make_pointer()
    # Mutable protocol objects and containers are tagged ...
    assert _is_mutable_payload(ptr)
    assert _is_mutable_payload([ptr])
    assert _is_mutable_payload({})
    # ... immutable value types and scalars are not.
    assert not _is_mutable_payload(NodeId(3, 4))
    assert not _is_mutable_payload(make_event())
    assert not _is_mutable_payload(None)
    assert not _is_mutable_payload("download")
    assert not _is_mutable_payload(7)


def test_payload_objects_unpacks_wire_shapes():
    a, b = make_pointer(0b0001), make_pointer(0b0010)
    # download-data: ([matching], [tops]) — both lists and their
    # elements are identity-tracked.
    objs = _payload_objects(([a], [b]))
    assert a in objs and b in objs
    # level-info: (level, rate, piggyback)
    objs = _payload_objects((2, 0.5, [a]))
    assert a in objs
    # bodyless payloads tag nothing.
    assert _payload_objects(None) == []
    assert _payload_objects(NodeId(3, 4)) == []


def test_detsan_requested_parses_env():
    assert detsan_requested({"REPRO_DETSAN": "1"})
    assert detsan_requested({"REPRO_DETSAN": "true"})
    assert not detsan_requested({"REPRO_DETSAN": "0"})
    assert not detsan_requested({})


# -- end-to-end: chaos under the sanitizer ---------------------------------


def run_crash_churn(n_nodes=40, seed=0):
    return ChaosRunner(
        SCENARIOS["crash_churn"], n_nodes=n_nodes, seed=seed, detsan=True
    ).run()


def test_clean_protocol_run_has_no_detsan_findings():
    result = run_crash_churn()
    assert result.ok
    assert result.detsan_ok, result.detsan_violations


def run_part_merge():
    """Two seeded parts under the sanitizer; one part-0 top raises above
    its part, so it bridge-subscribes at a part-1 top, which propagates
    the subscription across its top group (DESIGN.md §8)."""
    net, keys = build_two_parts()
    san = DetSan()
    san.attach(net)
    try:
        merger = next(net.node(k) for k in keys if net.node(k).node_id.bit(0) == 0)
        merger._initiate_raise(0)
        net.run(until=net.sim.now + 20.0)
        san.final_scan()
    finally:
        san.detach()
    assert any(merger.node_id.value in n.bridge_subscribers for n in net.live_nodes())
    return san


def test_planted_aliasing_bug_is_caught():
    # Re-introduce the PR 2 bug at runtime: every "copy" silently hands
    # back the shared object, so a bridge top retains the subscriber's
    # live Pointer — ``bridge_subscribers`` is the one piece of node
    # state that still holds Pointers.  The final scan must light up.
    assert run_part_merge().ok
    orig_copy = Pointer.copy

    def aliasing_copy(self, **overrides):
        return self

    Pointer.copy = aliasing_copy
    try:
        san = run_part_merge()
    finally:
        Pointer.copy = orig_copy
    assert not san.ok
    assert all(v.check == "payload-retained" for v in san.violations)
    assert any("'bridge-subscribe'" in v.detail for v in san.violations)


def test_top_lists_cannot_retain_a_received_pointer():
    # The top-list half of the bug class is structural: a list stores a
    # pointer's fields, never the object, even with the aliasing copy
    # planted, so mutating what was merged changes nothing held.
    orig_copy = Pointer.copy
    Pointer.copy = lambda self, **overrides: self
    try:
        received = make_pointer()
        top, cross = TopNodeList(4), CrossPartTopList(4)
        top.merge([received])
        cross.merge("1", [received])
    finally:
        Pointer.copy = orig_copy
    received.level, received.address, received.last_refresh = 3, "moved", 9.0
    for held in (top.pointers(), cross.for_part("1"), [top.choose(np.random.default_rng(0))]):
        assert held == [make_pointer()]
        assert held[0] is not received


def test_detsan_does_not_change_the_chaos_trace():
    # The sanitizer only observes: same seed with and without it must
    # produce byte-identical traces.
    plain = ChaosRunner(
        SCENARIOS["crash_churn"], n_nodes=40, seed=0, detsan=False
    ).run()
    sanitized = run_crash_churn()
    assert sanitized.trace == plain.trace


# -- tripwires and lifecycle -----------------------------------------------


class FakeTransport:
    def __init__(self):
        self.delivered = []

    def _deliver(self, msg):
        self.delivered.append(msg)


class FakeNet:
    def __init__(self):
        self.transport = FakeTransport()
        self.nodes = {}


def call_from_module(module_name, fn):
    """Run ``fn`` with the caller's ``__name__`` spoofed to
    ``module_name``, the way the tripwires attribute calls."""
    code = compile("result = fn()", "<fixture>", "exec")
    globs = {"__name__": module_name, "fn": fn}
    exec(code, globs)
    return globs["result"]


def test_tripwires_flag_simulator_callers_only():
    san = DetSan()
    net = FakeNet()
    san.attach(net)
    try:
        # Host-side caller (this test module): silent.
        time.time()
        random.random()
        assert san.ok
        # Simulator caller: both tripwires fire.
        call_from_module("repro.net.fixture_service", time.time)
        call_from_module("repro.net.fixture_service", random.random)
    finally:
        san.detach()
    checks = {v.check for v in san.violations}
    assert checks == {"wall-clock", "global-rng"}
    # Exempt simulator modules stay silent.
    san2 = DetSan()
    san2.attach(FakeNet())
    try:
        call_from_module("repro.live.clock", time.time)
    finally:
        san2.detach()
    assert san2.ok


def test_tripwires_still_return_real_values():
    san = DetSan()
    san.attach(FakeNet())
    try:
        assert isinstance(time.time(), float)
        assert 0.0 <= random.random() < 1.0
    finally:
        san.detach()


def test_detach_restores_all_patched_globals():
    orig_time = time.time
    orig_random = random.random
    net = FakeNet()
    orig_deliver = net.transport._deliver
    san = DetSan()
    san.attach(net)
    assert time.time is not orig_time  # patched while attached
    san.detach()
    assert time.time is orig_time
    assert random.random is orig_random
    assert net.transport._deliver == orig_deliver


def test_attach_rejects_partitioned_networks():
    parallel_net = types.SimpleNamespace(transport=None, nodes={})
    with pytest.raises(ValueError, match="sequential"):
        DetSan().attach(parallel_net)


def test_attach_twice_is_an_error():
    san = DetSan()
    san.attach(FakeNet())
    try:
        with pytest.raises(RuntimeError, match="already attached"):
            san.attach(FakeNet())
    finally:
        san.detach()


def test_delivery_tap_tags_only_mutable_cross_node_payloads():
    san = DetSan(scan_stride=1000)  # no sampled scans in this test
    net = FakeNet()
    san.attach(net)
    try:
        ptr = make_pointer()
        msgs = [
            types.SimpleNamespace(src=1, dst=2, kind="top-ptr", payload=ptr),
            # Immutable payloads and self-sends are not tracked.
            types.SimpleNamespace(
                src=1, dst=2, kind="level-query", payload=NodeId(3, 4)
            ),
            types.SimpleNamespace(src=2, dst=2, kind="top-ptr", payload=ptr),
            types.SimpleNamespace(src=1, dst=2, kind="probe", payload=None),
        ]
        for msg in msgs:
            net.transport._deliver(msg)
        assert len(net.transport.delivered) == 4  # pass-through intact
        assert san.deliveries_seen == 1
    finally:
        san.detach()
