"""The ledger's own tests, at ``--quick`` size (< 2 s per workload).

Run with ``pytest benchmarks/ledger -q`` (outside tier-1's ``testpaths``:
it spawns about twenty child interpreters).
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

from benchmarks.ledger import spec
from benchmarks.ledger.__main__ import main as ledger_main
from benchmarks.ledger.harness import spawn

sys.path.insert(0, str(spec.ROOT / "src"))  # in-process tests import repro

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_PY = str(spec.ROOT / "benchmarks" / "ledger" / "run.py")
WORKLOADS = spec.workload_names()


@pytest.fixture(scope="module")
def passes():
    """One timed and two traced quick passes of every workload, seed 5."""
    return {
        (name, trace, rep): spawn(name, 5, 1.0, trace, quick=True)
        for name in WORKLOADS
        for trace, rep in ((0, 0), (1, 0), (1, 1))
    }


def test_benchmark_json_meets_the_contract():
    doc = spec.load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/ledger"]
    assert all(part.startswith("benchmarks/ledger") or "/" not in part
               for part in doc["command"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in doc[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = spec.metric_table("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_command_prints_exactly_the_contract_keys(trace):
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "live_loopback", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = spec.metric_table("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_and_nothing_else(passes, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record = passes[name, trace, 0]
        declared = spec.metric_table(section)
        assert set(record["metrics"]) == set(declared)
        for metric, cell in record["metrics"].items():
            assert cell["unit"] == declared[metric]["unit"]
            assert isinstance(cell["value"], (int, float))
        assert record["failed"] == 0 and record["attempted"] >= 1
    timed = passes[name, 0, 0]["metrics"]
    assert all(cell["value"] > 0 for cell in timed.values()), timed
    assert passes[name, 0, 0]["samples"]["raw_wall_s"] > 0
    assert passes[name, 1, 0]["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_gives_one_fingerprint_and_exact_counts(passes, name):
    first, second = passes[name, 1, 0], passes[name, 1, 1]
    assert first["fingerprint"] == second["fingerprint"] == passes[name, 0, 0]["fingerprint"]
    for metric, entry in spec.metric_table("per_layer").items():
        if spec.is_exact(entry):
            assert first["metrics"][metric] == second["metrics"][metric], metric


def test_the_trace_attributes_to_the_right_layers(passes):
    churn = passes["detailed_churn", 1, 0]["metrics"]
    ring = passes["detailed_ring", 1, 0]["metrics"]
    live = passes["live_loopback", 1, 0]["metrics"]
    assert churn["core.multicast.forwards"]["value"] > 0
    assert churn["core.multicast.forward_share"]["value"] > 0.5
    assert ring["core.multicast.forwards"]["value"] == 0
    assert ring["sim.parallel.lp2_equal"]["value"] == 1
    probes_sent = passes["detailed_ring", 1, 0]["attempted"]
    assert 0 < ring["core.node.handle_calls.probe"]["value"] <= probes_sent
    assert live["kernel.codec.encode_calls"]["value"] == live["live.runtime.sent"]["value"]
    assert live["sim.engine.events"]["value"] == 0


def test_tracer_puts_every_original_object_back():
    from benchmarks.ledger.tracer import Tracer, trace_points
    from benchmarks.ledger.workloads import load

    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in trace_points(Tracer())]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not obj for owner, attr, obj in originals)
        ring = load("detailed_ring")
        state = ring.build(1, ring.size(1.0, True))
        ring.run(state)
    finally:
        tracer.uninstall()
    assert tracer.calls("sim.engine.step") > 0 and tracer.spans
    for owner, attr, obj in originals:
        assert owner.__dict__[attr] is obj, (owner, attr)
    # Self time never exceeds inclusive time, and parents precede children.
    assert all(row[2] <= row[1] for row in tracer.agg.values())
    assert all(parent < index for index, (_, _, _, parent) in enumerate(tracer.spans))


def test_calibrated_clock_probes_beside_the_work_and_lets_go_of_the_alarm():
    from benchmarks.ledger.clock import PROBE_REF_S, TICK_S, CalibratedClock

    started = time.perf_counter()
    with CalibratedClock() as clock:
        while time.perf_counter() - started < 5 * TICK_S:
            pass
    elapsed = time.perf_counter() - started
    assert len(clock.probes) == len(clock.stretches) + 1 >= 4
    # The probes' own time is in neither total.
    assert 0 < clock.raw_seconds <= elapsed - sum(clock.probes[1:-1])
    slowest, fastest = max(clock.probes), min(clock.probes)
    assert (clock.raw_seconds * PROBE_REF_S / slowest <= clock.seconds
            <= clock.raw_seconds * PROBE_REF_S / fastest)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN


def test_oracle_error_agrees_with_the_network_own_scan():
    from benchmarks.ledger.workloads import load
    from benchmarks.ledger.workloads.detailed import oracle_error

    churn = load("detailed_churn")
    net = churn.build(2, churn.size(1.0, True))["net"]
    assert oracle_error(net) == net.mean_error_rate() == 0.0
    net.crash(next(iter(net.nodes)))
    net.add_node(1e9, bootstrap=list(net.nodes)[5])
    net.run(until=8.0)
    assert oracle_error(net) == pytest.approx(net.mean_error_rate())
    assert oracle_error(net) > 0


def _cell(*values):
    return {"unit": "s", "median": statistics.median(values), "values": list(values)}


def _ledger(tmp_path, filename, **changes):
    """A synthetic five-runs-per-workload ledger with every metric at 1."""
    workload = {
        "fingerprint": "f" * 64, "attempted": 10, "failed": 0,
        "end_to_end": {name: {**_cell(*[1.0] * 5), "unit": e["unit"]}
                       for name, e in spec.metric_table("end_to_end").items()},
        "per_layer": {name: {"unit": e["unit"], "value": 1}
                      for name, e in spec.metric_table("per_layer").items()},
    }
    ledger = {"seed": 0, "seconds": 10.0, "quick": False,
              "workloads": {name: json.loads(json.dumps(workload)) for name in WORKLOADS},
              "claim": None}
    for path, value in changes.items():
        node = ledger["workloads"]["detailed_ring"]
        *parents, leaf = path.split("/")
        for key in parents:
            node = node[key]
        node[leaf] = value
    target = tmp_path / filename
    target.write_text(json.dumps(ledger))
    return str(target)


def test_compare_passes_equal_ledgers_and_fails_regressions(tmp_path, capsys):
    bound = spec.metric_table("end_to_end")["wall_s"]["bound"]
    base = _ledger(tmp_path, "base.json")
    assert ledger_main(["compare", base, _ledger(tmp_path, "same.json")]) == 0
    slower = _ledger(tmp_path, "slower.json",
                     **{"end_to_end/wall_s": _cell(*[1 + 2 * bound] * 5)})
    assert ledger_main(["compare", base, slower]) == 1
    assert f"detailed_ring.wall_s: worse by {2 * bound:.1%} of 1 s" in capsys.readouterr().out
    assert ledger_main(["compare", slower, base]) == 0  # better is not a failure
    within = _ledger(tmp_path, "within.json",
                     **{"end_to_end/wall_s": _cell(*[1 + bound / 2] * 5)})
    assert ledger_main(["compare", base, within]) == 0
    for change in ({"fingerprint": "0" * 64}, {"failed": 1},
                   {"per_layer/net.transport.sent/value": 2}):
        assert ledger_main(["compare", base, _ledger(tmp_path, "bad.json", **change)]) == 1
    # A spread wider than the bound is unresolved, not a regression.
    noisy = _ledger(tmp_path, "noisy.json",
                    **{"end_to_end/wall_s": _cell(0.5, 1.0, 2.0, 2.5)})
    capsys.readouterr()
    assert ledger_main(["compare", base, noisy]) == 0
    assert "unresolved (bound" in capsys.readouterr().out
    # So is a difference between single runs: unknown spread is not zero spread.
    once = _ledger(tmp_path, "once.json", **{"end_to_end/wall_s": _cell(1 + 2 * bound)})
    assert ledger_main(["compare", base, once]) == 0
    assert "unresolved (n<4)" in capsys.readouterr().out


def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "detailed_ring",
         "--seed", "0", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
