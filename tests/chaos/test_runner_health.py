"""Chaos + health: the one in-run judge and its quiescence gate, post-hoc
verdicts, the CLI exit code."""

from __future__ import annotations

from repro.chaos import BYZANTINE_SCENARIOS, SCENARIOS, ByzantineRunner, ChaosRunner
from repro.chaos.monitor import InvariantMonitor
from repro.cli import main
from repro.obs import stream
from repro.obs.health import HealthSpec, Slo
from repro.obs.stream import StreamConfig, load_frames_file


def run_smoke(seed=0, n=24, **kwargs):
    return ChaosRunner(SCENARIOS["smoke"], n_nodes=n, seed=seed, **kwargs).run()


def default_spec(n=24):
    return HealthSpec.default(SCENARIOS["smoke"].make_config(), n)


class TestRunnerHealth:
    def test_no_spec_means_vacuously_healthy(self):
        result = run_smoke()
        assert result.health_verdicts == []
        assert result.healthy is True

    def test_spec_forces_observability_and_judges_posthoc(self):
        result = run_smoke(health_spec=default_spec())
        assert result.spans, "a health spec must force span recording on"
        assert result.metrics
        assert result.health_verdicts, "post-hoc evaluation always appended"
        assert result.healthy, [v.describe() for v in result.health_verdicts]
        judged = {v.slo for v in result.health_verdicts}
        assert "mcast.tree_completeness" in judged
        assert "bandwidth.model_ratio" in judged
        assert "peerlist.error_rate" in judged

    def test_health_run_keeps_the_chaos_trace_deterministic(self):
        """Health monitoring draws no randomness and sends no messages:
        the determinism digest must match an unmonitored same-seed run."""
        plain = run_smoke(seed=5)
        judged = run_smoke(seed=5, health_spec=default_spec())
        assert plain.trace == judged.trace

    def test_impossible_slo_breaches_and_names_the_signal(self):
        spec = HealthSpec(
            name="impossible",
            slos=[Slo("peerlist.error_rate",
                      "no network satisfies a negative bound", hi=-1.0)],
        )
        result = run_smoke(health_spec=spec)
        assert not result.healthy
        breaches = [v for v in result.health_verdicts if not v.ok]
        assert breaches
        assert {v.slo for v in breaches} == {"peerlist.error_rate"}
        # In-run breaches carry the window boundary they were judged at;
        # the post-hoc verdict is stamped at the end.
        assert all(v.time <= result.duration for v in breaches)


IMPOSSIBLE = HealthSpec(
    name="impossible",
    slos=[Slo("peerlist.error_rate", "no network satisfies a negative bound",
              hi=-1.0)],
)


def in_run(result, spec):
    """The verdicts the in-run judge kept: everything before the one
    post-hoc verdict per judged signal the runner appends last."""
    posthoc = sum(1 for slo in spec if slo.name in result.health_signals)
    return result.health_verdicts[:len(result.health_verdicts) - posthoc]


class _Spy(InvariantMonitor):
    """Records the quiescence verdict last read at each instant: the
    judge reads it after every event of its window boundary has run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_at = {}

    @property
    def quiescent(self):
        value = InvariantMonitor.quiescent.fget(self)
        self.read_at[self.net.sim.now] = value
        return value


class _SpiedRunner(ChaosRunner):
    def _make_monitor(self, net, plan):
        self.monitor = _Spy(net, interval=self.monitor_interval)
        return self.monitor


class TestOneInRunJudge:
    def test_breaches_are_kept_only_at_quiescent_window_boundaries(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        runner = _SpiedRunner(
            SCENARIOS["smoke"], n_nodes=24, seed=0, health_spec=IMPOSSIBLE,
            stream=StreamConfig(window=10.0, snapshot_path=str(path)),
        )
        result = runner.run()
        frames, _, _ = load_frames_file(str(path))
        breached = [f["t1"] for f in frames if f["breaches"] and not f["final"]]
        read_at = runner.monitor.read_at
        judged = [t for t in breached if t in read_at]  # after the plan began
        quiet = [t for t in judged if read_at[t]]
        assert quiet and len(quiet) < len(judged), "both sides of the gate"
        kept = in_run(result, IMPOSSIBLE)
        assert [v.time for v in kept] == quiet
        assert {v.slo for v in kept} == {"peerlist.error_rate"}
        assert all(not v.ok and v.traces is not None for v in kept)

    def test_health_and_stream_share_one_windower(self, tmp_path, monkeypatch):
        built = []

        class Counted(stream.StreamWindower):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(stream, "StreamWindower", Counted)
        path = tmp_path / "frames.jsonl"
        result = run_smoke(
            health_spec=IMPOSSIBLE,
            stream=StreamConfig(window=15.0, snapshot_path=str(path)),
        )
        (windower,) = built
        frames, _, _ = load_frames_file(str(path))
        windows = [f for f in frames if not f["final"]]
        assert len(windows) == windower.agg.windows_closed == int(result.duration // 15.0)
        # The stream has no spec of its own: its frames are judged by the
        # health spec, on the stream's window grid.
        assert any(f["breaches"] for f in windows)
        kept = in_run(result, IMPOSSIBLE)
        assert kept and all(v.time % 15.0 == 0.0 for v in kept)

    def test_health_alone_windows_at_four_monitor_intervals(self):
        result = ChaosRunner(SCENARIOS["crash_churn"], seed=0,
                             health_spec=IMPOSSIBLE).run()
        assert [v.time for v in in_run(result, IMPOSSIBLE)] == [120.0]

    def test_forged_obituary_unhardened_breaches_the_error_rate_in_run(self):
        scenario = BYZANTINE_SCENARIOS["forged-obituary-unhardened"]
        spec = HealthSpec.byzantine(scenario.make_config(), scenario.default_nodes)
        result = ByzantineRunner(scenario, seed=1, health_spec=spec).run()
        assert {v.slo for v in in_run(result, spec)} == {"peerlist.error_rate"}
        assert not result.healthy


class TestChaosHealthCli:
    def test_chaos_health_default_exits_zero_when_healthy(self, capsys):
        rc = main(["chaos", "--scenario", "smoke", "-n", "24",
                   "--seed", "0", "--health", "default"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "HEALTHY" in out

    def test_chaos_health_breach_exits_one(self, tmp_path, capsys):
        spec_path = str(tmp_path / "impossible.json")
        HealthSpec(
            name="impossible",
            slos=[Slo("peerlist.error_rate", "always breached", hi=-1.0)],
        ).save(spec_path)
        rc = main(["chaos", "--scenario", "smoke", "-n", "24",
                   "--seed", "0", "--health", spec_path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "UNHEALTHY" in out
        assert "peerlist.error_rate" in out
