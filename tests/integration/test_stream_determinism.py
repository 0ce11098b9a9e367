"""Streaming telemetry determinism: frames are partition-invariant.

The acceptance property of the streaming pipeline: driving the same
seeded churn scenario through a :class:`StreamWindower` produces a
byte-identical ``--snapshot-jsonl`` file on the sequential engine and
under any partitioning (``parallel=4``).  Events are
bucketed by the window stride that published them, which is only
deterministic because the parallel engine settles cross-LP deliveries
landing exactly on the stride boundary before ``run`` returns.

Also covers the chaos-runner integration: streaming a chaos run leaves
its determinism digest untouched, and two same-seed streamed runs write
identical frame files.
"""

import pytest

from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.obs.health import HealthSpec
from repro.obs.stream import SnapshotWriter, StreamConfig, StreamWindower

from .test_parallel_equivalence import CONFIG


def run_streamed(path, **network_kwargs):
    """The churn scenario of test_parallel_equivalence, advanced through
    a windower with a snapshot sink; returns the snapshot file text."""
    net = PeerWindowNetwork(
        config=CONFIG,
        master_seed=11,
        topology=PairwiseLatencyModel(),
        observability=True,
        **network_kwargs,
    )
    windower = StreamWindower(
        net,
        window=15.0,
        spec=HealthSpec.default(CONFIG, 30),
        sinks=[SnapshotWriter(str(path))],
    )
    keys = list(net.seed_nodes([1e9] * 30))
    windower.run(until=20.0)

    def live():
        return [k for k in keys if k in net.nodes and net.nodes[k].alive]

    net.crash(live()[3])
    windower.run(until=40.0)
    keys.append(net.add_node(1e9, bootstrap=live()[0]))
    windower.run(until=60.0)
    net.leave(live()[5])
    windower.run(until=80.0)
    net.crash(live()[7])
    windower.run(until=100.0)
    keys.append(net.add_node(1e9, bootstrap=live()[2]))
    windower.run(until=200.0)
    windower.finish()
    with open(path) as fh:
        return fh.read()


class TestStreamEquivalence:
    @pytest.fixture(scope="class")
    def sequential_frames(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "seq.jsonl"
        return run_streamed(path)

    def test_sequential_run_emits_windows(self, sequential_frames):
        lines = sequential_frames.strip().splitlines()
        # header + 13 windows of 15 s over 200 s + the final frame
        assert len(lines) == 15
        assert '"schema":"repro.telemetry"' in lines[0]
        assert '"final":true' in lines[-1]

    def test_partitioned_frames_byte_identical(
        self, sequential_frames, tmp_path
    ):
        par = run_streamed(tmp_path / "par.jsonl", parallel=4)
        assert par == sequential_frames

    def test_replay_frames_byte_identical(self, sequential_frames, tmp_path):
        again = run_streamed(tmp_path / "again.jsonl")
        assert again == sequential_frames


class TestChaosStream:
    def _streamed_run(self, path, seed=3):
        from repro.chaos import SCENARIOS, ChaosRunner

        runner = ChaosRunner(
            SCENARIOS["smoke"],
            seed=seed,
            stream=StreamConfig(window=15.0, snapshot_path=str(path)),
        )
        result = runner.run()
        with open(path) as fh:
            return result, fh.read()

    def test_same_seed_streams_identical_frames(self, tmp_path):
        one, frames_one = self._streamed_run(tmp_path / "one.jsonl")
        two, frames_two = self._streamed_run(tmp_path / "two.jsonl")
        assert frames_one == frames_two
        assert one.trace == two.trace

    def test_stream_leaves_chaos_digest_unchanged(self, tmp_path):
        from repro.chaos import SCENARIOS, ChaosRunner

        plain = ChaosRunner(SCENARIOS["smoke"], seed=3, observe=True).run()
        streamed, frames = self._streamed_run(tmp_path / "frames.jsonl")
        assert streamed.trace == plain.trace
        assert frames.count('"final":true') == 1
