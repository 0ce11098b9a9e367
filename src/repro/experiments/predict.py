"""Closed-form predictions for the §5 figures.

The level distribution is fully determined by three inputs — the
bandwidth-threshold distribution, the system event rate, and the message
size — because each node's level is the §2 stationary point
``l = max(0, ceil(log2(R·i / W)))``, the rule :mod:`repro.core.analytic`
writes once for both engines and these functions.  They compute the
figures analytically, giving:

* an independent check of the simulation engines (tests pin them to each
  other);
* instant paper-scale predictions (the 100,000-node figure 5 in
  microseconds);
* a design tool: plug in *your* deployment's bandwidth mix and churn and
  read off the expected level structure and costs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.analytic import stationary_level, stationary_levels
from repro.workloads.bandwidth_dist import (
    GnutellaBandwidthDistribution,
    threshold_from_bandwidth,
)
from repro.workloads.lifetime import COMMON_MEAN_LIFETIME_S


def system_event_rate(
    n_nodes: float,
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    changes_per_lifetime: float = 2.0,
) -> float:
    """Stationary state-change rate: ``N * m / L`` events per second.

    ``m = 2`` counts joins and leaves (the churn the engines measure);
    the paper's §2 estimate uses ``m = 3`` (one extra change per
    lifetime).
    """
    if n_nodes < 0 or mean_lifetime_s <= 0 or changes_per_lifetime <= 0:
        raise ValueError("invalid rate parameters")
    return n_nodes * changes_per_lifetime / mean_lifetime_s


def predict_level_distribution(
    n_nodes: int,
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    event_bits: float = 1000.0,
    changes_per_lifetime: float = 2.0,
    bandwidth_dist: Optional[GnutellaBandwidthDistribution] = None,
    threshold_fraction: float = 0.01,
    threshold_floor_bps: float = 500.0,
    max_level: int = 24,
    samples: int = 200_000,
    seed: int = 0,
) -> Dict[int, float]:
    """Predicted fraction of nodes per level (figure 5/9/11 rows).

    Monte-Carlo over the threshold distribution (the distribution has no
    closed-form inverse through the 1 %/floor transform, so we sample;
    200k samples give ±0.2 % fractions).
    """
    dist = bandwidth_dist or GnutellaBandwidthDistribution()
    rng = np.random.default_rng(seed)
    bws = np.asarray(dist.sample(rng, samples))
    thresholds = threshold_from_bandwidth(bws, threshold_fraction, threshold_floor_bps)
    rate = system_event_rate(n_nodes, mean_lifetime_s, changes_per_lifetime)
    levels = stationary_levels(rate * event_bits, thresholds, max_level)
    counts = np.bincount(levels, minlength=max_level + 1)
    return {
        int(l): float(c) / samples for l, c in enumerate(counts) if c > 0
    }


def predict_n_levels(
    n_nodes: int,
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    event_bits: float = 1000.0,
    changes_per_lifetime: float = 2.0,
    threshold_floor_bps: float = 500.0,
    max_level: int = 24,
) -> int:
    """Number of populated levels: the deepest level is set by the
    threshold floor (the weakest possible node)."""
    rate = system_event_rate(n_nodes, mean_lifetime_s, changes_per_lifetime)
    return stationary_level(rate * event_bits, threshold_floor_bps, max_level) + 1


def predict_error_rate(
    n_nodes: int,
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    probe_interval_s: float = 30.0,
    probe_timeout_s: float = 5.0,
    processing_delay_s: float = 1.0,
    mean_link_latency_s: float = 0.5,
) -> float:
    """Predicted mean peer-list error rate (figure 7/10/12 values).

    Per §5.3, ``error ≈ propagation_delay / lifetime``, with one leave and
    one join charged per session:

    * leave staleness = detection (interval/2 + timeout) + report leg +
      mean tree depth × per-hop cost;
    * join absence = report leg + depth × per-hop cost;
    * mean binomial-tree depth ≈ log2(audience)/2 ≈ log2(N)/2.
    """
    if n_nodes < 2:
        return 0.0
    depth = math.log2(n_nodes) / 2.0
    hop = processing_delay_s + mean_link_latency_s
    report = processing_delay_s + mean_link_latency_s
    leave_delay = probe_interval_s / 2.0 + probe_timeout_s + report + depth * hop
    join_delay = report + depth * hop
    return (leave_delay + join_delay) / mean_lifetime_s


def predict_input_bps(
    n_nodes: int,
    level: int,
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    event_bits: float = 1000.0,
    changes_per_lifetime: float = 2.0,
) -> float:
    """Predicted event-input bandwidth of a level-``l`` node (figure 8):
    the share of the system event stream landing in its prefix."""
    rate = system_event_rate(n_nodes, mean_lifetime_s, changes_per_lifetime)
    return rate * event_bits / (2.0**level)


def predict_bps_per_1000_pointers(
    mean_lifetime_s: float = COMMON_MEAN_LIFETIME_S,
    event_bits: float = 1000.0,
    changes_per_lifetime: float = 2.0,
) -> float:
    """Figure 8's headline constant: maintenance input per 1000 pointers
    is scale- and level-free: ``1000 * m * i / L``."""
    return 1000.0 * changes_per_lifetime * event_bits / mean_lifetime_s


def predict_figure9(
    scales: List[int], **kwargs
) -> List[Tuple[int, Dict[int, float]]]:
    """Level distributions across a scale sweep."""
    return [(n, predict_level_distribution(n, **kwargs)) for n in scales]


def predict_figure11(
    rates: List[float], n_nodes: int = 100_000, **kwargs
) -> List[Tuple[float, Dict[int, float]]]:
    """Level distributions across a Lifetime_Rate sweep."""
    out = []
    for r in rates:
        out.append(
            (
                r,
                predict_level_distribution(
                    n_nodes, mean_lifetime_s=COMMON_MEAN_LIFETIME_S * r, **kwargs
                ),
            )
        )
    return out
