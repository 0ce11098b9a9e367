"""Multi-seed replication and confidence intervals.

Single simulation runs carry sampling noise (Poisson churn, random ids,
random attachment points).  Production-grade reproduction reports
replicated results:

* :func:`replicate` — run a scenario across seeds, collect any metric;
* :class:`MetricSummary` — mean, standard deviation, and a Student-t
  confidence interval (small replication counts, so normal-approximation
  intervals would be too tight);
* :func:`compare` — paired comparison of two configurations across the
  same seeds (the right way to A/B a protocol knob: common random
  numbers cancel workload noise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.scalable import ScalableParams, ScalableResult, ScalableSim
from repro.workloads.lifetime import GnutellaLifetimeDistribution


@dataclass(frozen=True)
class MetricSummary:
    """Replicated-metric summary with a t-interval."""

    name: str
    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"{self.name}: {self.mean:.5g} ± {self.half_width():.2g} "
            f"({self.confidence:.0%} CI, n={self.n})"
        )


def summarize_metric(
    name: str, values: Sequence[float], confidence: float = 0.95
) -> MetricSummary:
    """Student-t confidence interval for a replicated metric."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("no values to summarize")
    mean = float(arr.mean())
    if arr.size == 1:
        return MetricSummary(name, 1, mean, 0.0, mean, mean, confidence)
    # Here, not at module scope: the CLI imports this module for every
    # command, and loading scipy.stats (0.7 s, 70 MB) buys one quantile.
    from scipy import stats as sps

    std = float(arr.std(ddof=1))
    sem = std / np.sqrt(arr.size)
    t = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return MetricSummary(
        name, int(arr.size), mean, std, mean - t * sem, mean + t * sem, confidence
    )


MetricFn = Callable[[ScalableResult], float]

#: Metrics the replication harness extracts by default.
DEFAULT_METRICS: Dict[str, MetricFn] = {
    "mean_error_rate": lambda r: r.mean_error_rate,
    "frac_level0": lambda r: r.fraction_at_level(0),
    "n_levels": lambda r: float(r.n_levels()),
    "mean_tree_depth": lambda r: r.mean_tree_depth,
    "root_out_degree": lambda r: r.mean_root_out_degree,
}


def replicate(
    params: ScalableParams,
    seeds: Sequence[int],
    metrics: Optional[Dict[str, MetricFn]] = None,
    confidence: float = 0.95,
) -> Dict[str, MetricSummary]:
    """Run the scenario once per seed; summarize each metric."""
    if not seeds:
        raise ValueError("need at least one seed")
    metrics = metrics if metrics is not None else DEFAULT_METRICS
    collected: Dict[str, List[float]] = {name: [] for name in metrics}
    for seed in seeds:
        p = replace(params, seed=int(seed))
        result = ScalableSim(
            p, lifetime_dist=GnutellaLifetimeDistribution(lifetime_rate=p.lifetime_rate)
        ).run()
        for name, fn in metrics.items():
            collected[name].append(fn(result))
    return {
        name: summarize_metric(name, values, confidence)
        for name, values in collected.items()
    }


def compare(
    params_a: ScalableParams,
    params_b: ScalableParams,
    seeds: Sequence[int],
    metric: MetricFn,
    confidence: float = 0.95,
) -> Tuple[MetricSummary, float]:
    """Paired A/B comparison under common random numbers.

    Returns the summary of per-seed differences (b - a) and the paired
    t-test p-value.  A CI excluding zero (equivalently p < 1-confidence)
    means the knob's effect is real, not workload noise.
    """
    if len(seeds) < 2:
        raise ValueError("paired comparison needs >= 2 seeds")
    diffs = []
    for seed in seeds:
        pa = replace(params_a, seed=int(seed))
        pb = replace(params_b, seed=int(seed))
        ra = ScalableSim(
            pa, lifetime_dist=GnutellaLifetimeDistribution(lifetime_rate=pa.lifetime_rate)
        ).run()
        rb = ScalableSim(
            pb, lifetime_dist=GnutellaLifetimeDistribution(lifetime_rate=pb.lifetime_rate)
        ).run()
        diffs.append(metric(rb) - metric(ra))
    summary = summarize_metric("difference (b - a)", diffs, confidence)
    arr = np.asarray(diffs)
    if np.allclose(arr, arr[0]):
        p_value = 0.0 if arr[0] != 0 else 1.0
    else:
        from scipy import stats as sps  # deferred as in summarize_metric

        p_value = float(sps.ttest_1samp(arr, 0.0).pvalue)
    return summary, p_value
