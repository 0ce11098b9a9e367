"""The protocol-health trajectory: the seed matrix behind BENCH_health.json.

``scripts/bench_trajectory.py`` replays the fixed ``MATRIX`` of
``(scenario, n_nodes, seed)`` cells (chaos run -> span analytics -> SLO
verdicts) to regenerate the committed ``BENCH_health.json``.  Every cell
is a pure function of its tuple, so the file is byte-identical across
regenerations — a diff in review means protocol behaviour actually moved.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import SCENARIOS
from repro.obs.health import HealthSpec

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
    # The runner judged the run (in-run windows + one post-hoc pass over
    # the span log); the cell reports those verdicts and signals.
    return {
        "scenario": scenario_name,
        "n_nodes": n_nodes,
        "seed": seed,
        "duration": result.duration,
        "live_nodes": result.live_nodes,
        "faults_injected": result.faults_injected,
        "violations": len(result.violations),
        "healthy": result.healthy,
        "signals": dict(sorted(result.health_signals.items())),
        "breaches": sorted({v.slo for v in result.health_verdicts if not v.ok}),
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

