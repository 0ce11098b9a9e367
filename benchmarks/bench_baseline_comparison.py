"""The measured protocol tournament behind BENCH_baselines.json.

The seeded tournament cell :data:`TOURNAMENT` runs every executable
contestant over one identical churn workload and records the full
``repro.compare`` scorecard; ``scripts/bench_trajectory.py --baselines``
regenerates (or, with ``--check``, byte-compares) the committed file.
The introduction's closed-form comparison (explicit probing's 600
pointers at 10 kbps, PeerWindow ahead at every budget) is checked in
``BENCH_paper.json`` (``benchmarks/bench_paper.py``).
"""

import os

from repro.compare import contestant_names

#: Where the committed tournament scorecard lives (repo root).
BASELINES_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_baselines.json",
)

#: The seeded tournament cell: every executable contestant, one
#: identical churn workload.  Small enough to regenerate in seconds,
#: big enough that the bandwidth/error ordering is stable.
TOURNAMENT = {
    "contestants": tuple(contestant_names()),
    "n_nodes": 40,
    "duration": 180.0,
    "window": 30.0,
    "seeds": (0,),
}


def build_baselines_doc():
    """The BENCH_baselines.json document — a pure function of
    :data:`TOURNAMENT`, byte-identical across reruns and engines."""
    from repro.compare import TournamentConfig, run_tournament

    return run_tournament(TournamentConfig(**TOURNAMENT))

