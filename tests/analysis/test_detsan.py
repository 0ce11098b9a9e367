"""DetSan, the runtime sanitizer: a clean protocol run reports nothing,
its state walk finds a received pointer or message that a planted bug
keeps in node state (and finds nothing after any chaos scenario), the
row tables cannot keep a received pointer, the clock/RNG tripwires fire
only from simulator code, and detach restores every patched global."""

import random
import time

import numpy as np
import pytest

from repro.analysis.detsan import HELD_TYPES, DetSan, held_objects
from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS
from repro.core.dissemination import MulticastService
from repro.core.failure import FailureDetector
from repro.core.nodeid import NodeId
from repro.core.pointer import Pointer
from repro.core.topnodes import CrossPartTopList, TopNodeList
from tests.core.test_part_merge import build_two_parts


def make_pointer(value=0b1010, bits=4):
    return Pointer(node_id=NodeId(value, bits), address=value, level=1)


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
    assert any(
        p.node_id == merger.node_id for n in net.live_nodes() for p in n.bridge_subscribers
    )
    return san


def test_planted_aliasing_bug_is_caught(monkeypatch):
    # Re-plant the bug class: the bridge-subscribe handler keeps the
    # subscriber's received Pointer (the sender's live object) in node
    # state beside the rows.  The walk names it by path.
    clean = run_part_merge()
    assert clean.ok, clean.violations
    subscribe = MulticastService.on_bridge_subscribe

    def keeping_subscribe(self, msg):
        subscribe(self, msg)
        self.subscriber = msg.payload[0]

    monkeypatch.setattr(MulticastService, "on_bridge_subscribe", keeping_subscribe)
    san = run_part_merge()
    assert not san.ok
    assert all(v.check == "held-object" for v in san.violations)
    assert any(
        "node.dissemination.subscriber holds a Pointer" in v.detail
        for v in san.violations
    )


def test_walk_finds_a_kept_message_by_path(monkeypatch):
    net, keys = build_two_parts()
    on_probe = FailureDetector.on_probe

    def keeping_probe(self, msg):
        on_probe(self, msg)
        self.pending = {"last": [msg]}

    monkeypatch.setattr(FailureDetector, "on_probe", keeping_probe)
    net.run(until=net.sim.now + 20.0)
    held = {path: type(obj).__name__ for n in net.live_nodes() for path, obj in held_objects(n)}
    assert held
    # The walk skips dict keys and set members: no held type can be one.
    assert all(kind.__hash__ is None for kind in HELD_TYPES)
    assert set(held.items()) == {("node.failure.pending['last'][0]", "Message")}


@pytest.mark.parametrize(
    "scenario, n_nodes",
    [(name, 100 if name == "churn-partition" else None) for name in sorted(SCENARIOS)],
)
def test_no_node_state_holds_a_pointer_or_message_after_a_chaos_scenario(scenario, n_nodes):
    # The structural form of the retention check: every slot reachable
    # from every node holds rows, scalars and ids — no Pointer, no
    # Message, and so no payload container carrying one.
    runner = ChaosRunner(SCENARIOS[scenario], n_nodes=n_nodes, seed=0, detsan=True)
    result = runner.run()
    assert result.detsan_ok, result.detsan_violations


def test_top_lists_cannot_retain_a_received_pointer(monkeypatch):
    # The row tables make the bug class structural: a list stores a
    # pointer's fields, never the object, even with a ``Pointer.copy``
    # that hands back the shared object planted, so mutating what was
    # merged changes nothing held — and the walk over a part merge that
    # fills bridge-subscriber rows finds nothing.
    monkeypatch.setattr(Pointer, "copy", lambda self, **overrides: self)
    received = make_pointer()
    top, cross, bridge = TopNodeList(4), CrossPartTopList(4), TopNodeList(1)
    top.merge([received])
    cross.merge("1", [received])
    bridge.merge([received])
    received.level, received.address, received.last_refresh = 3, "moved", 9.0
    for held in (
        top.pointers(),
        cross.for_part("1"),
        bridge.pointers(),
        [top.choose(np.random.default_rng(0))],
    ):
        assert held == [make_pointer()]
        assert held[0] is not received
    merged = run_part_merge()
    assert merged.ok, merged.violations


def test_detsan_does_not_change_the_chaos_trace():
    # The sanitizer only observes: same seed with and without it must
    # produce byte-identical traces.
    plain = ChaosRunner(
        SCENARIOS["crash_churn"], n_nodes=40, seed=0, detsan=False
    ).run()
    sanitized = run_crash_churn()
    assert sanitized.trace == plain.trace


# -- tripwires and lifecycle -----------------------------------------------


class FakeNet:
    def __init__(self):
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


def test_tripwires_flag_a_near_miss_module_name():
    # Exemption is by module or dotted child, as detlint's rules match:
    # a name that merely starts like an exempt module is simulator code.
    san = DetSan()
    san.attach(FakeNet())
    try:
        call_from_module("repro.live.clock.helpers", time.time)
        call_from_module("repro.sim.rng", random.random)
        assert san.ok
        call_from_module("repro.live.clockwork", time.time)
        call_from_module("repro.sim.rngs", random.random)
    finally:
        san.detach()
    assert sorted((v.check, v.where.split(":")[0]) for v in san.violations) == [
        ("global-rng", "repro.sim.rngs"), ("wall-clock", "repro.live.clockwork"),
    ]


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
    san = DetSan()
    san.attach(FakeNet())
    assert time.time is not orig_time  # patched while attached
    san.detach()
    assert time.time is orig_time
    assert random.random is orig_random


def test_attach_twice_is_an_error():
    san = DetSan()
    san.attach(FakeNet())
    try:
        with pytest.raises(RuntimeError, match="already attached"):
            san.attach(FakeNet())
    finally:
        san.detach()
