"""The command line's surface, and the input it refuses before running.

``golden_cli_surface.json`` holds, per subcommand, every option's
strings, dest, default, nargs, choices and required flag as commit
``757304e`` declared them — the commit before the flags that mean the same
thing on several subcommands moved into shared argparse parents.  The one
difference allowed is :data:`REMOVED`.  (``python tests/test_cli_surface.py``
re-records the file from the tree it runs in.)
"""

import argparse
import json
import os

import pytest

from repro.cli import build_parser, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli_surface.json")
#: (subcommand, option) pairs the golden has and the command line no longer does.
REMOVED = {("obs run", "--profile")}


def surface(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``{subcommand path: {option strings, or a positional's dest: shape}}``."""
    options, out = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(surface(child, name if path == "repro" else f"{path} {name}"))
        elif not isinstance(action, argparse._HelpAction):
            options[" ".join(action.option_strings) or action.dest] = {
                "dest": action.dest, "default": action.default,
                "nargs": action.nargs, "required": action.required,
                "choices": None if action.choices is None else list(action.choices),
            }
    # What set_defaults() pins without a flag (``live seed`` has no --via).
    options["(set_defaults)"] = {
        dest: value for dest, value in sorted(parser._defaults.items()) if dest != "func"
    }
    out[path] = options
    return out


def test_every_subcommand_declares_what_the_parent_commit_declared():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for command, option in REMOVED:
        del golden[command][option]
    declared = json.loads(json.dumps(surface(build_parser())))
    assert sorted(declared) == sorted(golden)
    for command in golden:
        assert declared[command] == golden[command], command


def test_every_subcommand_has_a_handler():
    def handlers(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    if not any(isinstance(a, argparse._SubParsersAction)
                               for a in child._actions):
                        yield child.get_default("func")
                    yield from handlers(child)

    found = list(handlers(build_parser()))
    assert found and all(callable(fn) for fn in found)


# -- input refused before anything runs ----------------------------------------

MALFORMED_SPECS = {
    "no_name": ('{"slos":[{"lo":"x"}]}', "slos[0]"),
    "not_an_object": ("[1,2]", "JSON object"),
    "not_json": ("{not json", "not valid JSON"),
    "bad_bound": ('{"slos":[{"name":"a","hi":"high"}]}', "'hi'"),
}
#: Each names a spans file that does not exist: the spec is read first.
SPEC_COMMANDS = {
    "chaos": ["chaos", "--health", "{spec}"],
    "obs health": ["obs", "health", "/nonexistent/spans.jsonl", "--spec", "{spec}"],
    "obs report": ["obs", "report", "/nonexistent/spans.jsonl", "--spec", "{spec}"],
    "live swarm": ["live", "swarm", "-n", "2", "--spec", "{spec}"],
}


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_a_malformed_health_spec_is_one_error_line_and_exit_2(
    command, case, tmp_path, monkeypatch, capsys
):
    import repro.chaos.runner
    import repro.live.swarm

    def never(*args, **kwargs):
        raise AssertionError("something ran")

    monkeypatch.setattr(repro.chaos.runner.ChaosRunner, "run", never)
    monkeypatch.setattr(repro.live.swarm, "launch_swarm", never)
    text, named = MALFORMED_SPECS[case]
    spec = tmp_path / f"{case}.json"
    spec.write_text(text)
    argv = [arg.format(spec=spec) for arg in SPEC_COMMANDS[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(spec) in captured.err and named in captured.err


@pytest.mark.parametrize("argv, named", [
    (["obs", "run", "-n", "2"], "--nodes"),
    (["obs", "run", "-n", "0"], "--nodes"),
    (["obs", "run", "--duration", "-5"], "--duration"),
    (["obs", "run", "--duration", "nan"], "--duration"),
    (["obs", "run", "--window", "0"], "--window"),
    (["obs", "run", "--parallel", "0"], "--parallel"),
    (["chaos", "--window", "0"], "--window"),
    (["compare", "-n", "0"], "--nodes"),
    (["compare", "-n", "1"], "--nodes"),
    (["fig5", "-n", "many"], "--nodes"),
])
def test_a_number_that_cannot_run_is_one_error_line_and_exit_2(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """Spans and metrics of one small ``obs run``."""
    out = tmp_path_factory.mktemp("recorded")
    spans, metrics = str(out / "spans.jsonl"), str(out / "metrics.json")
    assert main(["obs", "run", "-n", "12", "--duration", "40", "--seed", "3",
                 "--spans", spans, "--metrics", metrics]) == 0
    with open(metrics) as fh:
        return spans, json.load(fh)


def _health_with_config(recorded_run, tmp_path, capsys, **changes):
    spans, doc = recorded_run
    doc = json.loads(json.dumps(doc))
    doc["meta"]["config"].update(changes)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["obs", "health", spans, "--metrics", str(path)])
    return rc, capsys.readouterr(), str(path)


@pytest.mark.parametrize("changes, named", [
    ({"bogus": 1}, "'bogus'"),
    ({"probe_interval": "30"}, "probe_interval"),
    ({"probe_interval": float("nan")}, "probe_interval"),
    ({"timer_jitter": 0.2}, "'timer_jitter'"),
    ({"multicast_redundancy": 2}, "'multicast_redundancy'"),
])
def test_a_metrics_file_with_a_bad_config_is_one_error_line_and_exit_2(
    recorded_run, tmp_path, capsys, changes, named
):
    rc, captured, path = _health_with_config(recorded_run, tmp_path, capsys, **changes)
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert path in captured.err and named in captured.err


def test_a_metrics_file_recording_the_retired_fields_judges_as_before(
    recorded_run, tmp_path, capsys
):
    """Files written before ``timer_jitter`` / ``multicast_redundancy`` /
    ``claim_audit_margin`` went record them at the values now fixed."""
    rc, today, _ = _health_with_config(recorded_run, tmp_path, capsys)
    older_rc, older, _ = _health_with_config(
        recorded_run, tmp_path, capsys,
        timer_jitter=0.0, multicast_redundancy=1, claim_audit_margin=1.5,
    )
    assert rc == older_rc == 0
    assert older.out == today.out and "HEALTHY" in today.out
    assert older.err == today.err == ""


def test_the_smallest_obs_run_runs(capsys):
    """n = 3 is a bootstrap plus the two churn victims."""
    assert main(["obs", "run", "-n", "3", "--duration", "20"]) == 0
    assert "obs run, N=3" in capsys.readouterr().out


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(surface(build_parser()), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
