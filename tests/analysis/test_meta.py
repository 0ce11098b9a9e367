"""Meta-tests: the analyzer holds over the repo's own source tree.

The acceptance gate is ``repro lint src/repro`` exiting 0 — i.e. zero
findings that are not grandfathered in ``detlint-baseline.json``.  These
tests pin that property so a regression (new wall-clock read, new
unsorted set iteration, ...) fails CI here even before check.sh runs.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import Baseline, run_lint

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "detlint-baseline.json")


def test_src_repro_has_zero_non_baselined_findings():
    findings = run_lint([SRC_REPRO], root=REPO_ROOT)
    baseline = (
        Baseline.load(BASELINE) if os.path.exists(BASELINE) else Baseline()
    )
    new, _grandfathered = baseline.split(findings)
    assert new == [], "new detlint findings:\n" + "\n".join(
        f.describe() for f in new
    )


def test_committed_baseline_parses_and_is_versioned():
    if not os.path.exists(BASELINE):
        pytest.skip("no committed baseline")
    with open(BASELINE, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["version"] == 1
    Baseline.from_dict(data)  # must round-trip


def test_cli_lint_json_exit_zero():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "lint",
            "src/repro",
            "--format",
            "json",
            "--baseline",
            "detlint-baseline.json",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["findings"] == []
    assert "DET001" in report["checked_rules"]
    assert len(report["checked_rules"]) >= 6
