"""Tournament scorecards: determinism across runs and engines.

The scorecard is a committed artifact, so it must be a pure function of
``(contestants, n_nodes, duration, window, seeds)`` — byte-identical on
rerun and byte-identical whether the champion runs its sequential or
its parallel engine.
"""

import json

import pytest

from repro.compare import (
    CONTESTANTS,
    TournamentConfig,
    build_contestant,
    contestant_names,
    render_json,
    render_markdown,
    run_tournament,
)
from repro.compare.scorecard import champion_healthy

SMALL = dict(
    contestants=("peerwindow", "gossip"),
    n_nodes=24,
    duration=90.0,
    window=30.0,
    seeds=(0,),
)


@pytest.fixture(scope="module")
def small_doc():
    return run_tournament(TournamentConfig(**SMALL))


class TestRegistry:
    def test_contestant_names_are_sorted_registry_keys(self):
        assert contestant_names() == list(CONTESTANTS)
        assert "peerwindow" in CONTESTANTS
        assert "push-pull-gossip" in CONTESTANTS

    def test_build_contestant_rejects_unknown(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            build_contestant("carrier-pigeon", seed=0, n_nodes=10)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TournamentConfig(contestants=(), n_nodes=24)
        with pytest.raises(ValueError):
            TournamentConfig(contestants=("peerwindow",), n_nodes=24,
                             duration=-1.0)
        with pytest.raises(ValueError):
            TournamentConfig(contestants=("no-such-protocol",), n_nodes=24)


    @pytest.mark.parametrize("field, kwargs, listed", [
        ("contestants", {"contestants": ("gossip", "onehop", "gossip")}, "gossip"),
        ("seeds", {"seeds": ()}, "empty"),
        ("seeds", {"seeds": (3, 1, 3)}, "3"),
        ("n_nodes", {"n_nodes": 1}, "got 1"),
    ])
    def test_refuses_what_it_cannot_run_by_name(self, field, kwargs, listed):
        """A repeated contestant is one network driven twice (every
        churn op applied twice, ``StreamWindower.finish`` twice); no seed
        is a scorecard whose champion passes on nothing run; one node is
        no baseline network and no churn workload."""
        args = {"contestants": ("gossip",), "n_nodes": 24, **kwargs}
        with pytest.raises(ValueError, match=rf"{field}.*{listed}"):
            TournamentConfig(**args)

    def test_one_non_champion_contestant_is_a_tournament(self):
        doc = run_tournament(TournamentConfig(
            contestants=("explicit-probe",), n_nodes=12, duration=60.0))
        assert [r["contestant"] for r in doc["rows"]] == ["explicit-probe"]
        assert doc["champion_healthy"] is True  # vacuous: it did not run


class TestCommandLine:
    @pytest.mark.parametrize("argv, named", [
        (["--contestants", "gossip", "gossip"], "contestants"),
        (["--seeds", "0"], "seeds"),
        (["--contestants", "carrier-pigeon"], "carrier-pigeon"),
        (["--duration", "-1"], "duration"),
    ])
    def test_unrunnable_tournament_is_exit_2_before_anything_runs(
        self, argv, named, monkeypatch, capsys
    ):
        import repro.compare
        from repro.cli import main

        def never(*args, **kwargs):
            raise AssertionError("the tournament ran")

        monkeypatch.setattr(repro.compare, "run_tournament", never)
        assert main(["compare", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""


class TestScorecard:
    def test_doc_shape(self, small_doc):
        assert small_doc["schema"] == "repro.compare"
        assert small_doc["schema_version"] == 1
        assert "parallel" not in small_doc["config"]
        names = sorted({row["contestant"] for row in small_doc["rows"]})
        assert names == ["gossip", "peerwindow"]
        assert len(small_doc["rows"]) == 2
        assert len(small_doc["aggregates"]) == 2
        assert isinstance(small_doc["champion_healthy"], bool)
        for row in small_doc["rows"]:
            for key in ("bandwidth_bps_per_node", "error_rate",
                        "completeness", "windows", "final_breaches",
                        "healthy"):
                assert key in row

    def test_rerun_is_byte_identical(self, small_doc):
        again = run_tournament(TournamentConfig(**SMALL))
        assert render_json(again) == render_json(small_doc)
        assert render_markdown(again) == render_markdown(small_doc)

    def test_sequential_and_parallel_engines_agree(self, small_doc):
        par = run_tournament(TournamentConfig(**SMALL, parallel=4))
        assert render_json(par) == render_json(small_doc)

    def test_multi_seed_rows_and_aggregates(self):
        doc = run_tournament(TournamentConfig(
            contestants=("gossip",), n_nodes=16, duration=60.0,
            window=30.0, seeds=(0, 1),
        ))
        assert [r["seed"] for r in doc["rows"]] == [0, 1]
        agg = doc["aggregates"][0]
        assert agg["seeds"] == 2
        assert agg["contestant"] == "gossip"

    def test_markdown_mentions_the_champion_verdict(self, small_doc):
        text = render_markdown(small_doc)
        assert "| peerwindow |" in text
        assert "Champion (peerwindow):" in text

    def test_champion_healthy_helper(self):
        rows = [
            {"contestant": "peerwindow", "healthy": True},
            {"contestant": "gossip", "healthy": False},
        ]
        assert champion_healthy("peerwindow", rows) is True
        assert champion_healthy("gossip", rows) is False
        assert champion_healthy("absent", rows) is True  # vacuous


class TestWatchCallback:
    def test_on_window_sees_every_contestant_each_boundary(self):
        calls = []

        def spy(seed, t, frames_by_name):
            calls.append((seed, t, sorted(frames_by_name)))

        run_tournament(
            TournamentConfig(contestants=("gossip", "onehop"), n_nodes=16,
                             duration=60.0, window=30.0, seeds=(0,)),
            on_window=spy,
        )
        assert calls, "watch callback never fired"
        for seed, t, names in calls:
            assert seed == 0
            assert names == ["gossip", "onehop"]
        # final callback carries the final frames at the run's end
        assert calls[-1][1] == pytest.approx(60.0)


class TestFramesDir:
    def test_per_contestant_frame_files(self, tmp_path):
        run_tournament(
            TournamentConfig(contestants=("gossip",), n_nodes=16,
                             duration=60.0, window=30.0, seeds=(0,)),
            frames_dir=str(tmp_path),
        )
        path = tmp_path / "gossip-seed0.jsonl"
        assert path.exists()
        lines = path.read_text().splitlines()
        frames = [json.loads(line) for line in lines[1:]]  # skip header
        assert frames and frames[-1]["final"] is True
        for frame in frames:
            assert "signals" in frame and "state" in frame
