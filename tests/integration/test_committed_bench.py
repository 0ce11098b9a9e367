"""The committed ``BENCH_*.json`` documents are current and healthy.

``BENCH_health.json`` and ``BENCH_baselines.json`` are rebuilt in-process
and compared byte for byte with the files at the repo root — the check
``scripts/bench_trajectory.py --check`` and ``--baselines --check`` make,
in the same rendering.  ``BENCH_paper.json`` takes a minute of 100,000-node
runs to rebuild, so its byte compare is ``scripts/check.sh --paper``'s;
here its committed verdicts, bands and rendered tables are checked
without re-running it.
"""

import json

import pytest

from benchmarks.bench_baseline_comparison import BASELINES_PATH, build_baselines_doc
from benchmarks.bench_health import MATRIX, TRAJECTORY_PATH, build_trajectory
from benchmarks.bench_paper import EXPERIMENTS_PATH, PAPER_PATH, ROWS, render_experiments


def _committed(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("path, build", [
    (TRAJECTORY_PATH, build_trajectory),
    (BASELINES_PATH, build_baselines_doc),
], ids=["BENCH_health", "BENCH_baselines"])
def test_committed_bench_document_is_current(path, build):
    rendered = json.dumps(build(), sort_keys=True, indent=2, ensure_ascii=False)
    assert rendered + "\n" == _committed(path)


def test_committed_health_verdict():
    doc = json.loads(_committed(TRAJECTORY_PATH))
    assert doc["summary"]["cells"] == len(MATRIX)
    assert doc["summary"]["healthy"] is True
    assert all(c["signals"]["mcast.tree_completeness"] >= 0.99 for c in doc["matrix"])


def test_committed_baselines_verdict():
    assert json.loads(_committed(BASELINES_PATH))["champion_healthy"] is True


def test_committed_paper_rows_hold_the_table_bands():
    """No committed row fails, and each row's paper value and band are
    the table's in bench_paper.py: a band edited in the JSON alone fails."""
    rows = json.loads(_committed(PAPER_PATH))["rows"]
    assert [r["id"] for r in rows if r["ok"] is False] == []
    assert [(r["id"], r["paper"], r["band"]) for r in rows] == [
        (row.id, row.paper, [list(b) for b in row.band] or None) for row in ROWS
    ]
    assert all((r["ok"] is None) == (r["band"] is None) for r in rows)


def test_experiments_tables_are_rendered_from_the_committed_paper_doc():
    text = _committed(EXPERIMENTS_PATH)
    assert render_experiments(json.loads(_committed(PAPER_PATH)), text) == text
