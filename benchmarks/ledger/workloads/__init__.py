"""The five workloads: build (set-up), run (the timed region), check.

Every workload is a :class:`Workload` of plain functions over a state
object.  ``build`` makes the inputs from the seed and is repeatable (the
child builds several times and reports the median set-up time); ``run``
is the only part that is timed; ``check`` verifies the outputs, raising
:class:`CheckFailed` instead of letting a fast wrong answer be reported,
and returns the :class:`Outcome` the metrics are derived from.

Only ``repro.*`` public API is used.  Sizes are calibrated so that the
timed region takes about ``--seconds`` on the reference machine (a
2-core sandbox): node counts are fixed, simulated durations and request
counts scale linearly with ``--seconds``.  ``--quick`` shrinks node
counts too, for the test-suite.

One module per engine, imported on demand by :func:`load`, so that a
workload's ``setup_s`` pays for the imports it needs and no others.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional


class CheckFailed(Exception):
    """A workload's outputs are wrong; the run must not report metrics."""


@dataclass
class Outcome:
    #: Deterministic for (workload, seed, size); hashed into the fingerprint.
    stats: Dict[str, Any]
    #: Operations attempted / failed (the README says what an op is).
    attempted: int
    failed: int
    #: Units of engine work behind ``ns_per_event`` (README: what an event is).
    events: int
    #: 1 - peer-list error vs the oracle (live: share of correct replies).
    accuracy: float
    #: Per-layer metrics the workload measures itself (never hashed); the
    #: traced pass reports those of its untraced run.
    layer: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    size: Callable[[float, bool], Dict[str, Any]]
    build: Callable[[int, Dict[str, Any]], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]
    #: The traced pass's run (untraced base and traced alike), when it
    #: differs from the timed one.
    run_traced: Optional[Callable[[Any], Any]] = None
    #: Releases what ``build`` opened (sockets, an event loop).
    close: Callable[[Any], None] = lambda state: None


def fingerprint(stats: Dict[str, Any]) -> str:
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: workload name -> the module under this package that defines it.
_MODULES = {
    "detailed_churn": "detailed",
    "detailed_ring": "detailed",
    "scalable_paper": "scalable",
    "tournament": "tournament",
    "live_loopback": "live",
}


def load(name: str) -> Workload:
    module = importlib.import_module(f"{__name__}.{_MODULES[name]}")
    return module.WORKLOADS[name]
