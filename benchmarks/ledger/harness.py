"""Spawning one child per (workload, pass).

Each pass runs in its own ``sys.executable`` so that it has its own
``ru_maxrss``, pays its own cold imports (inside ``setup_s``), and
cannot be warmed or polluted by the pass before it.  ``PYTHONHASHSEED``
is pinned: set iteration order must not differ between two runs that
are compared for exact equality.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, Optional

from benchmarks.ledger.spec import ROOT

#: The contract gives one run 180 s; stop a hung child before that.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """The child exited non-zero (an output check failed, or it crashed)."""


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    quick: bool = False,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one pass to completion and return its JSON record."""
    cmd = [
        sys.executable, "-m", "benchmarks.ledger.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    path = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    # subprocess.run waits for the child, and kills it first on timeout.
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} (trace={trace}) exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])
