"""The paper's experiment scenarios (§5.1-§5.3), one preset per axis.

:data:`COMMON` is the common PeerWindow of §5.1 (100,000 nodes, 600 s of
warm-up, 1,800 s measured, seed 1); :data:`SCALE_SWEEP` is the system
scale Figs 9/10 sweep and :data:`LIFETIME_RATES` the ``Lifetime_Rate``
Figs 11/12 sweep.  :mod:`repro.experiments.figures` defaults to them, and
``benchmarks/bench_paper.py`` checks the figures they produce.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.scalable import ScalableParams

#: The paper's common PeerWindow (§5.1).
COMMON = ScalableParams(n_target=100_000, duration_s=1800.0, warmup_s=600.0, seed=1)

#: §5.2 scalability sweep (figure 9/10 x-axis).
SCALE_SWEEP: Tuple[int, ...] = (5_000, 10_000, 20_000, 50_000, 100_000)

#: §5.3 adaptivity sweep (figure 11/12 x-axis).
LIFETIME_RATES: Tuple[float, ...] = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
