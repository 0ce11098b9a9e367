"""Protocol tournament: every contestant, one seeded workload, one scorecard.

The paper's claim is comparative — PeerWindow collects full node lists
with less bandwidth and lower error than flat alternatives — so the
repro needs a driver that makes the comparison *measured* rather than
asserted.  This package runs PeerWindow and every registered baseline
over byte-identical seeded churn workloads, folds each contestant
through the same :class:`~repro.obs.stream.StreamWindower` /
:class:`~repro.obs.health.HealthSpec` machinery, and reduces the result
to one deterministic markdown + JSON scorecard (``repro compare``).
"""

from repro.compare.contestants import (
    CONTESTANTS,
    build_contestant,
    contestant_names,
    health_spec,
)
from repro.compare.scorecard import (
    SCORECARD_SCHEMA,
    SCORECARD_VERSION,
    render_json,
    render_markdown,
)
from repro.compare.tournament import TournamentConfig, run_tournament
from repro.compare.workload import ChurnOp, CompareWorkload

__all__ = [
    "CONTESTANTS",
    "ChurnOp",
    "CompareWorkload",
    "SCORECARD_SCHEMA",
    "SCORECARD_VERSION",
    "TournamentConfig",
    "build_contestant",
    "contestant_names",
    "health_spec",
    "render_json",
    "render_markdown",
    "run_tournament",
]
