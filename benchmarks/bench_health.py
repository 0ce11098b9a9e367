"""Protocol-health benchmark and the bench-trajectory seed matrix.

Two jobs share this module:

* pytest-benchmark timings for the health pipeline itself — a full
  chaos-run-to-verdict cell, and the pure ``analyze_spans`` throughput
  on an already-collected span log (the part a post-hoc ``repro obs
  report`` pays for);
* the fixed ``MATRIX`` of ``(scenario, n_nodes, seed)`` cells that
  ``scripts/bench_trajectory.py`` replays to regenerate the committed
  ``BENCH_health.json`` trajectory point.  Every cell is a pure
  function of its tuple, so the trajectory file is byte-identical
  across regenerations — a diff in review means protocol behaviour
  actually moved.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS
from repro.obs.analyze import analyze_spans
from repro.obs.health import HealthSpec, evaluate

from .conftest import run_once

#: The trajectory seed matrix: small enough to regenerate in about a
#: minute, wide enough to cover crash/partition/loss/recovery paths.
MATRIX: Tuple[Tuple[str, int, int], ...] = (
    ("smoke", 40, 0),
    ("smoke", 40, 1),
    ("recovery-stress", 100, 0),
    ("churn-partition", 120, 0),
)

TRAJECTORY_VERSION = 1
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_health.json",
)


def run_cell(scenario_name: str, n_nodes: int, seed: int) -> Dict[str, Any]:
    """One matrix cell: chaos run -> analytics -> SLO verdicts."""
    scenario = SCENARIOS[scenario_name]
    config = scenario.make_config()
    spec = HealthSpec.default(config, n_nodes)
    result = ChaosRunner(
        scenario, n_nodes=n_nodes, seed=seed, health_spec=spec
    ).run()
    # The runner's post-hoc evaluation analysed the span log once; the
    # cell reports the signals it judged rather than analysing it again.
    signals = result.health_signals
    verdicts = evaluate(spec, signals, now=result.duration)
    return {
        "scenario": scenario_name,
        "n_nodes": n_nodes,
        "seed": seed,
        "duration": result.duration,
        "live_nodes": result.live_nodes,
        "faults_injected": result.faults_injected,
        "violations": len(result.violations),
        "healthy": result.healthy and all(v.ok for v in verdicts),
        "signals": dict(sorted(signals.items())),
        "breaches": sorted(v.slo for v in verdicts if not v.ok),
    }


def build_trajectory(
    matrix: Tuple[Tuple[str, int, int], ...] = MATRIX,
) -> Dict[str, Any]:
    """The full trajectory document ``scripts/bench_trajectory.py`` writes."""
    cells: List[Dict[str, Any]] = [run_cell(*cell) for cell in matrix]
    return {
        "schema_version": TRAJECTORY_VERSION,
        "matrix": cells,
        "summary": {
            "cells": len(cells),
            "healthy_cells": sum(1 for c in cells if c["healthy"]),
            "healthy": all(c["healthy"] for c in cells),
        },
    }


def test_bench_health_cell(benchmark):
    """End-to-end cost of one trajectory cell (run + analyze + judge)."""
    cell = run_once(benchmark, run_cell, "smoke", 40, 0)
    assert cell["healthy"], cell["breaches"]
    assert cell["signals"]["mcast.tree_completeness"] >= 0.99


def test_bench_analyze_spans_throughput(benchmark):
    """Pure analytics throughput on a collected chaos span log."""
    scenario = SCENARIOS["smoke"]
    result = ChaosRunner(scenario, n_nodes=40, seed=0, observe=True).run()
    spans = result.spans
    report = benchmark(analyze_spans, spans)
    assert report.spans_total == len(spans)
    per_span = benchmark.stats.stats.min / max(1, len(spans))
    print(f"\nanalyze: {len(spans)} spans, {per_span * 1e6:.1f} us/span")


def test_committed_trajectory_is_current_schema_and_healthy():
    """The checked-in BENCH_health.json parses and reports healthy."""
    with open(TRAJECTORY_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == TRAJECTORY_VERSION
    assert doc["summary"]["cells"] == len(MATRIX)
    assert doc["summary"]["healthy"] is True
