"""Attached-info generator for the GUESS scenario of §3.

PeerWindow pointers carry *"a piece of attached info that can be specified
by upper applications"*.  GUESS [19] reads each peer's number of shared
files from it: Zipf-like, most peers share little and a few share a lot —
the free-riding measurement result.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


def sample_shared_files(rng: np.random.Generator, n: int, a: float = 1.6) -> np.ndarray:
    """Zipf-distributed shared-file counts; ~25% free riders (0 files)."""
    counts = rng.zipf(a, size=n).astype(np.int64)
    counts = np.minimum(counts * 10, 100_000)
    free_riders = rng.random(n) < 0.25
    counts[free_riders] = 0
    return counts


def guess_attached_info(rng: np.random.Generator, n: int) -> List[Dict[str, int]]:
    """Per-node attached info dict for the GUESS scenario."""
    files = sample_shared_files(rng, n)
    return [{"shared_files": int(f)} for f in files]
