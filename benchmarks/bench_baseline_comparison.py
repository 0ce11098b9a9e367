"""Baseline comparison: pointers maintainable per bandwidth budget.

Regenerates the introduction's positioning:

* explicit probing wastes 99.58% of its messages and maintains only 600
  pointers at 10 kbps;
* gossip multicast pays redundancy r;
* push-pull hybrid gossip halves that redundancy but pays a standing
  anti-entropy digest overhead;
* the one-hop DHT is all-or-nothing and prices weak nodes out at scale;
* random-walk collection cannot amortize maintenance.

PeerWindow's tree multicast dominates at every budget.

This module also hosts the committed *measured* comparison: the seeded
tournament cell behind ``BENCH_baselines.json`` (regenerated by
``scripts/bench_trajectory.py --baselines``), which runs every
executable contestant over one identical churn workload and records the
full ``repro.compare`` scorecard.
"""

import os

from benchmarks.conftest import run_once
from repro.baselines import closed_forms
from repro.baselines.explicit_probe import ExplicitProbeScheme
from repro.compare import contestant_names
from repro.core.analytic import CostModel
from repro.experiments.report import print_table

LIFETIME = 3600.0
N = 100_000

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


def compute():
    peer_window = CostModel(mean_lifetime_s=LIFETIME)
    schemes = closed_forms(N, LIFETIME)
    budgets = [500.0, 5_000.0, 50_000.0, 500_000.0]
    rows = []
    for w in budgets:
        row = [f"{w:,.0f}", peer_window.pointers_for_bandwidth(w)]
        row += [s.pointers_for_bandwidth(w) for s in schemes]
        rows.append(row)
    headers = ["budget bps", "PeerWindow"] + [s.name for s in schemes]
    reports = [s.report(10_000.0) for s in schemes]
    return headers, rows, reports


def test_bench_baseline_comparison(benchmark):
    headers, rows, reports = run_once(benchmark, compute)
    print_table("pointers maintainable per budget (N=100k, L=1h)", headers, rows)
    print_table(
        "scheme properties at 10 kbps",
        ["scheme", "pointers", "useful msg fraction", "heterogeneous", "autonomic"],
        [
            [r["scheme"], r["pointers"], r["useful_fraction"], r["heterogeneous"], r["autonomic"]]
            for r in reports
        ],
    )
    # PeerWindow wins at every budget.
    for row in rows:
        pw = row[1]
        assert all(pw >= other for other in row[2:])
    # Intro numbers.
    probing = ExplicitProbeScheme(mean_lifetime_s=7200.0)
    assert probing.pointers_for_bandwidth(10_000.0) == 600.0
    assert 1.0 - probing.useful_message_fraction() > 0.995
