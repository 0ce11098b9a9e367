"""Per-figure reproduction entry points (§5, figures 5-12).

Each ``figN()`` returns the rows the corresponding paper figure plots.
Figures 5-8 come from one *common PeerWindow* run (shared and cached);
figures 9/10 sweep the system scale; figures 11/12 sweep ``Lifetime_Rate``.
A sweep point carries both figures' readings: its level fractions (9, 11)
and its ``mean_error_rate`` (10, 12).

With no parameters they run the paper's presets
(:mod:`repro.experiments.scenario`); ``benchmarks/bench_paper.py`` checks
those runs against the paper's bands, and the integration tests assert
the paper's qualitative claims at CI scale (who wins, how trends move).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scalable import ScalableParams, ScalableResult, ScalableSim
from repro.experiments.scenario import COMMON, LIFETIME_RATES, SCALE_SWEEP

# One run cache per parameter set, so figures 5-8 share a run.
_run_cache: Dict[ScalableParams, ScalableResult] = {}


def run_scenario(params: ScalableParams) -> ScalableResult:
    """Run (or reuse) the scenario with the given parameters."""
    result = _run_cache.get(params)
    if result is None:
        result = ScalableSim(params).run()
        _run_cache[params] = result
    return result


def clear_cache() -> None:
    _run_cache.clear()


# ---------------------------------------------------------------------------
# Figures 5-8: the common PeerWindow
# ---------------------------------------------------------------------------


def fig5_node_distribution(params: Optional[ScalableParams] = None) -> List[Tuple[int, int, float]]:
    """Figure 5: (level, population, fraction) rows.

    Paper: *"more than half of the nodes running at level 0"*.
    """
    res = run_scenario(params or COMMON)
    return [(r.level, r.population, r.fraction) for r in res.rows if r.population > 0]


def fig6_peer_list_sizes(
    params: Optional[ScalableParams] = None,
) -> List[Tuple[int, float, float, float]]:
    """Figure 6: (level, mean, min, max) peer-list sizes.

    Paper: sizes halve per level (``N / 2^l``) and max ≈ min within a level.
    """
    res = run_scenario(params or COMMON)
    return [
        (r.level, r.mean_list_size, r.min_list_size, r.max_list_size)
        for r in res.rows
        if r.population > 0
    ]


def fig7_error_rates(params: Optional[ScalableParams] = None) -> List[Tuple[int, float]]:
    """Figure 7: (level, peer-list error rate).

    Paper: all levels below 0.5%; stronger levels slightly lower.
    """
    res = run_scenario(params or COMMON)
    return [(r.level, r.error_rate) for r in res.rows if r.population > 0]


def fig8_bandwidth(params: Optional[ScalableParams] = None) -> List[Tuple[int, float, float]]:
    """Figure 8: (level, input bps, output bps) for peer-list maintenance.

    Paper: input ∝ list size (~500 bps per 1000 pointers); output is
    concentrated at levels 0-1.
    """
    res = run_scenario(params or COMMON)
    return [(r.level, r.in_bps, r.out_bps) for r in res.rows if r.population > 0]


# ---------------------------------------------------------------------------
# Figures 9-10: scalability (§5.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    x: float
    level_fractions: Tuple[Tuple[int, float], ...]
    mean_error_rate: float
    n_levels: int


def _sweep_point(params: ScalableParams, x: float) -> SweepPoint:
    res = run_scenario(params)
    fractions = tuple(
        (r.level, r.fraction) for r in res.rows if r.population > 0
    )
    return SweepPoint(
        x=x,
        level_fractions=fractions,
        mean_error_rate=res.mean_error_rate,
        n_levels=res.n_levels(),
    )


def fig9_scalability_levels(
    scales: Optional[Sequence[int]] = None,
    base: Optional[ScalableParams] = None,
) -> List[SweepPoint]:
    """Figures 9 and 10: level distribution and mean error rate vs
    system scale.

    Paper: at 5,000 nodes (almost) everyone runs at level 0; more levels
    appear and populate as N grows.  The error rate rises with scale,
    *"but the change is very slight"* (multicast depth grows only
    logarithmically).
    """
    base = base or COMMON
    out = []
    for n in scales if scales is not None else SCALE_SWEEP:
        params = replace(base, n_target=int(n))
        out.append(_sweep_point(params, float(n)))
    return out


# ---------------------------------------------------------------------------
# Figures 11-12: adaptivity (§5.3)
# ---------------------------------------------------------------------------


def fig11_adaptivity_levels(
    rates: Optional[Sequence[float]] = None,
    base: Optional[ScalableParams] = None,
) -> List[SweepPoint]:
    """Figures 11 and 12: level distribution and mean error rate vs
    ``Lifetime_Rate``.

    Paper: at rate 0.1 (13.5-minute lifetimes) ~10 levels appear and only
    ~15% of nodes can hold level 0; longer lifetimes collapse everyone
    toward level 0.  ``error_rate ≈ multicast_delay / lifetime``, so the
    error is roughly inversely proportional to the lifetime rate (~10x at
    rate 0.1; figure 12's log-scale y).
    """
    base = base or COMMON
    out = []
    for rate in rates if rates is not None else LIFETIME_RATES:
        params = replace(base, lifetime_rate=float(rate))
        out.append(_sweep_point(params, float(rate)))
    return out
