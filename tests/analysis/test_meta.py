"""Meta-tests: the analyzer holds over the repo's own source tree.

The acceptance gate is ``repro lint src/repro`` exiting 0 with zero
findings — there is no baseline of grandfathered ones.  These tests pin
that property so a regression (new wall-clock read, new unsorted set
iteration, ...) fails CI here even before check.sh runs.
"""

import json
import os
import subprocess
import sys

from repro.analysis import run_lint

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
#: The rules the guard × bug matrix kept (DESIGN.md §13).
KEPT_RULES = ["DET001", "DET002", "DET003", "ISO002", "ISO003", "WIRE001"]


def test_src_repro_has_zero_findings():
    findings = run_lint([SRC_REPRO], root=REPO_ROOT)
    assert findings == [], "detlint findings:\n" + "\n".join(
        f.describe() for f in findings
    )


def test_cli_lint_json_exit_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/repro", "--format", "json"],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["findings"] == []
    assert report["checked_rules"] == KEPT_RULES
