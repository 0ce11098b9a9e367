"""Experiment harness: the §5 evaluation, reproduced.

* :mod:`~repro.experiments.scalable` — the 100,000-node engine built on
  the paper's own centralized-bookkeeping trick.
* :mod:`~repro.experiments.figures` — one entry point per paper figure
  (5-12), returning the rows the figure plots.
* :mod:`~repro.experiments.scenario` — the paper's parameter presets
  (the common run and the two sweeps).
* :mod:`~repro.experiments.ablation` — design-choice ablations.
* :mod:`~repro.experiments.report` — ASCII table rendering for the CLI.
"""

from repro.experiments.figures import (
    SweepPoint,
    clear_cache,
    fig5_node_distribution,
    fig6_peer_list_sizes,
    fig7_error_rates,
    fig8_bandwidth,
    fig9_scalability_levels,
    fig11_adaptivity_levels,
    run_scenario,
)
from repro.experiments.predict import (
    predict_error_rate,
    predict_level_distribution,
    predict_n_levels,
)
from repro.experiments.plot import (
    bar_chart,
    level_distribution_chart,
    line_chart,
)
from repro.experiments.report import format_table, print_table
from repro.experiments.stats import MetricSummary, replicate, summarize_metric
from repro.experiments.scalable import (
    LevelRow,
    ScalableParams,
    ScalableResult,
    ScalableSim,
    binomial_broadcast,
)
from repro.experiments.scenario import COMMON, LIFETIME_RATES, SCALE_SWEEP

__all__ = [
    "COMMON",
    "LIFETIME_RATES",
    "SCALE_SWEEP",
    "LevelRow",
    "ScalableParams",
    "ScalableResult",
    "ScalableSim",
    "SweepPoint",
    "binomial_broadcast",
    "clear_cache",
    "fig11_adaptivity_levels",
    "fig5_node_distribution",
    "fig6_peer_list_sizes",
    "fig7_error_rates",
    "fig8_bandwidth",
    "fig9_scalability_levels",
    "MetricSummary",
    "bar_chart",
    "level_distribution_chart",
    "line_chart",
    "format_table",
    "predict_error_rate",
    "predict_level_distribution",
    "predict_n_levels",
    "replicate",
    "summarize_metric",
    "print_table",
    "run_scenario",
]
