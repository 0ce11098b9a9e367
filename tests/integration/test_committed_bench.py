"""The committed ``BENCH_*.json`` bytes are what this tree computes.

Each document is rebuilt in-process and compared byte for byte with the
file at the repo root — the check ``scripts/bench_trajectory.py --check``
(``BENCH_health.json``) and ``--baselines --check``
(``BENCH_baselines.json``) make, in the same rendering.
"""

import json

import pytest

from benchmarks.bench_baseline_comparison import BASELINES_PATH, build_baselines_doc
from benchmarks.bench_health import TRAJECTORY_PATH, build_trajectory


@pytest.mark.parametrize("path, build", [
    (TRAJECTORY_PATH, build_trajectory),
    (BASELINES_PATH, build_baselines_doc),
], ids=["BENCH_health", "BENCH_baselines"])
def test_committed_bench_document_is_current(path, build):
    with open(path, encoding="utf-8") as fh:
        committed = fh.read()
    assert json.dumps(build(), sort_keys=True, indent=2) + "\n" == committed
