"""``BENCHMARK.json`` is the single declaration of what the ledger emits.

Workload names, metric names, units, directions and bounds are read
from it, never repeated in code: a child refuses to print a metric set
that differs from the declaration, and ``compare`` takes its bounds
from the same file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: The checkout root (``benchmarks/ledger/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]


def load() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def workload_names() -> List[str]:
    return [w["name"] for w in load()["workloads"]]


def metric_table(section: str) -> Dict[str, Dict[str, Any]]:
    """``section`` is ``"end_to_end"`` or ``"per_layer"``; name -> entry."""
    return {entry["name"]: entry for entry in load()[section]}


def is_exact(entry: Dict[str, Any]) -> bool:
    """Per-layer metrics with unit ``count`` are counts made by the
    program: they repeat exactly for a seed, so ``compare`` requires
    equality instead of applying a bound."""
    return entry["unit"] == "count"
