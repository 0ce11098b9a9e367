"""A batched detector tick is the per-probe schedule.

``BaselineNetwork._detector_tick`` schedules one ``_probes_ok`` event for
all the positive probes of a tick; the parent commit scheduled one event
per probe.  The two are the same program: the per-probe acks of one tick
held consecutive sequence numbers at one timestamp.  Two checks:

* a digest over everything a tournament produces, **recorded by running
  this file at the parent commit** (``PYTHONPATH=<parent>/src python
  tests/baselines/test_tick_batching.py`` prints it), reproduces;
* :class:`PerProbe`, the parent's schedule kept here as the reference,
  gives equal spans, frames and membership maps to the shipped class.

The tick also bills, opens and closes its probes as one batch; a third
check pins that a batched bill rounds as the per-message bills did.
"""

import contextlib
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.baselines import DESIGNS
from repro.baselines.explicit_probe import ExplicitProbeNetwork
from repro.compare import (
    TournamentConfig,
    contestant_names,
    render_json,
    run_tournament,
    tournament,
)
from repro.core.config import ProtocolConfig
from repro.obs import metrics as m
from repro.obs.export import span_to_dict, spans_to_jsonl
from repro.obs.stream import StreamWindower, frame_line

NETWORKS = list(DESIGNS.values())

#: ``tournament_digest()`` at the parent commit (cd72e82, per-probe acks).
PARENT_DIGEST = "be447fdff597e2fa7d3673d356666e51c53d8f59cbe4169cc27076b0ebfa5562"


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


@contextlib.contextmanager
def recorded_contestants():
    """Collects every network a tournament builds (the driver returns
    only the scorecard), in build order."""
    nets = []
    build = tournament.build_contestant

    def recording(*args, **kwargs):
        nets.append(build(*args, **kwargs))
        return nets[-1]

    with mock.patch.object(tournament, "build_contestant", recording):
        yield nets


def tournament_digest(frames_dir: str) -> str:
    """sha256 over every contestant's span export, telemetry frame file
    and final ``metrics_snapshot()``, then the scorecard document: six
    contestants x seeds 0 / 1 / 2, n = 60, 150 sim-s of
    ``CompareWorkload`` churn."""
    cfg = TournamentConfig(
        contestants=tuple(contestant_names()), n_nodes=60, duration=150.0,
        window=30.0, seeds=(0, 1, 2),
    )
    with recorded_contestants() as nets:
        doc = run_tournament(cfg, frames_dir=frames_dir)
    assert len(nets) == 18
    digest = hashlib.sha256()
    for net in nets:
        for span in net.spans():
            digest.update(_dump(span_to_dict(span)))
        digest.update(_dump(net.metrics_snapshot()))
    for path in sorted(Path(frames_dir).iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest.update(render_json(doc).encode())
    return digest.hexdigest()


def test_parent_recorded_tournament_digest_reproduces(tmp_path):
    assert tournament_digest(str(tmp_path)) == PARENT_DIGEST


class PerProbe:
    """The parent commit's detector, verbatim: every positive probe is
    its own ``_probe_ok`` event ``2 * hop_delay`` after the tick."""

    def _detector_tick(self, key):
        member = self.nodes.get(key)
        if member is None or not member.alive:
            return
        for target in self._probe_targets(member):
            self._probe(member, target)

    def _probe(self, member, target):
        now = self.sim.now
        self._send("probe", self.config.heartbeat_bits)
        span = None
        if member.obs.enabled:
            span = member.obs.start("probe", now, target=target)
        peer = self.nodes.get(target)
        if peer is not None and peer.alive:
            self._send("ack", self.config.ack_bits)
            self.sim.schedule(
                2 * self.hop_delay, self._probe_ok, member.key, target, span
            )
        else:
            self.sim.schedule(
                self.config.probe_timeout,
                self._probe_timeout, member.key, target, span,
            )

    def _probe_ok(self, key, target, span):
        member = self.nodes.get(key)
        if member is None:
            return
        now = self.sim.now
        if span is not None:
            member.obs.end(span, now, status="ok")
        member.obs.registry.observe(m.PROBE_RTT, 2 * self.hop_delay)
        if member.alive and target in member.known:
            member.known[target] = now


def _reference(cls):
    return type(cls.__name__, (PerProbe, cls), {})


class _Frames:
    def __init__(self):
        self.lines = []

    def write(self, frame):
        self.lines.append(frame_line(frame))

    def close(self):
        pass


def _next_tick(net, key):
    """When ``key``'s detector fires next (its first periodic task)."""
    return net.nodes[key].tasks[0]._handle.time


def _drive(cls, config=None, observability=True, crash_mid_tick=False):
    """Run ``cls`` through three crashes and a join; returns everything
    the two schedules must agree on."""
    net = cls(24, config=config, master_seed=5, observability=observability)
    frames = _Frames()
    windower = None
    if observability:
        windower = StreamWindower(net, window=30.0, sinks=[frames])
        run = windower.run
    else:
        run = lambda until: net.run(until=until)  # noqa: E731
    run(40.0)
    for rank in (0, 7, 11):
        net.crash(net.live_keys()[rank])
    run(70.0)
    net.join()
    if crash_mid_tick:
        # Crash a member after its tick has probed and before the acks
        # land: its spans still close, its ``known`` stays as it was.
        key = net.live_keys()[2]
        tick = _next_tick(net, key)
        run(tick + net.hop_delay)
        assert net.sim.now < tick + 2 * net.hop_delay
        net.crash(key)
    run(150.0)
    if windower is not None:
        windower.finish()
    return {
        "spans": spans_to_jsonl(net.spans()),
        "frames": frames.lines,
        "known": {k: dict(mem.known) for k, mem in net.nodes.items()},
        "dead": {k: dict(mem.dead) for k, mem in net.nodes.items()},
        "sent": (dict(net._msgs), dict(net._bits)),
        "metrics": json.dumps(net.metrics_snapshot(), sort_keys=True),
    }


#: ``probe_timeout == 2 * hop_delay``: the acks and the timeouts of one
#: tick share an instant, and the batch runs after timeouts the per-probe
#: acks ran between.
SAME_INSTANT = ProtocolConfig(id_bits=16, probe_timeout=0.1)

SCENARIOS = {
    "churn": {},
    "acks-meet-timeouts": {"config": SAME_INSTANT},
    "observability-off": {"observability": False},
    "crash-between-tick-and-acks": {"crash_mid_tick": True},
    "crash-mid-tick-acks-meet-timeouts": {
        "config": SAME_INSTANT, "crash_mid_tick": True,
    },
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("cls", NETWORKS, ids=lambda cls: cls.name)
def test_batched_tick_equals_per_probe_reference(cls, scenario):
    kwargs = SCENARIOS[scenario]
    shipped = _drive(cls, **kwargs)
    reference = _drive(_reference(cls), **kwargs)
    for what in sorted(shipped):
        assert shipped[what] == reference[what], what
    if kwargs.get("observability", True):
        assert '"name":"probe"' in shipped["spans"]
        assert shipped["frames"]
    else:
        assert shipped["spans"] == "" and not shipped["frames"]
    assert any(shipped["dead"].values()), "no death was ever detected"


def test_batched_bills_equal_per_message_bills():
    """A tick bills ``probe`` and ``ack`` once each for k messages.  The
    bit totals must still be k additions in turn (``k * bits`` rounds
    differently), on top of whatever the kind had already been billed."""
    batched = ExplicitProbeNetwork(4, master_seed=0, observability=False)
    single = ExplicitProbeNetwork(4, master_seed=0, observability=False)
    for net in (batched, single):
        net._send("probe", 1 / 3)
    for kind, bits, k in (("probe", 0.1, 999), ("ack", 0.7, 998), ("probe", 500, 3)):
        batched._send(kind, bits, k)
        for _ in range(k):
            single._send(kind, bits)
    assert batched._msgs == single._msgs == {"probe": 1003, "ack": 998}
    assert batched._bits == single._bits
    assert batched._bits["ack"] != 998 * 0.7


def test_crashed_prober_still_closes_its_spans():
    """What the mid-tick scenario is for: the acks of a member that died
    after probing end their spans at the ack instant and leave ``known``
    at its pre-tick timestamps."""
    net = ExplicitProbeNetwork(12, master_seed=5, observability=True)
    net.run(until=35.0)
    key = net.live_keys()[2]
    tick = _next_tick(net, key)
    net.run(until=tick + net.hop_delay)
    before = dict(net.nodes[key].known)
    net.crash(key)
    net.run(until=tick + 1.0)
    mine = [s for s in net.spans() if s.node == key and s.start == tick]
    assert len(mine) == 11
    assert {(s.end, s.status) for s in mine} == {(tick + 2 * net.hop_delay, "ok")}
    assert net.nodes[key].known == before


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(tournament_digest(scratch))
