"""Seeded churn workloads shared by every tournament contestant.

Fair comparison demands *identical* fault pressure: the same number of
crashes and joins at the same simulated times, for every protocol.  The
subtlety is that contestants allocate different node keys, so a
workload cannot name victims directly.  Like the chaos FaultPlan, a
:class:`ChurnOp` therefore carries an abstract ``pick`` in ``[0, 1)``
that each contestant resolves against *its own* sorted live-key list at
fire time — every contestant loses "the same" member (same rank, same
moment) without sharing key spaces.

The op list is derived entirely from ``(seed, n_nodes, duration)`` via
a seeded generator, so a tournament seed reproduces its workload
byte-for-byte forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["ChurnOp", "CompareWorkload"]

#: Never crash a network below this population — the comparison is about
#: steady-state collection quality, not extinction dynamics.
MIN_SURVIVORS = 8

#: Churn ops (crashes and joins) per 100 simulated seconds of run.
OPS_PER_100S = 4.0


@dataclass(frozen=True)
class ChurnOp:
    """One abstract churn event.

    ``pick`` selects the crash victim by rank: the contestant resolves
    ``keys[int(pick * len(keys))]`` over its sorted live keys.  Joins
    ignore ``pick`` (every contestant boots via its default bootstrap).
    """

    time: float
    kind: str  # "crash" | "join"
    pick: float

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "join"):
            raise ValueError(f"unknown churn op kind {self.kind!r}")
        if not 0.0 <= self.pick < 1.0:
            raise ValueError("churn op pick must lie in [0, 1)")

    def resolve(self, live_keys: List[int]):
        """Victim key for a crash, given the contestant's live keys."""
        if not live_keys:
            return None
        return live_keys[int(self.pick * len(live_keys))]


class CompareWorkload:
    """The full churn schedule for one tournament seed."""

    def __init__(self, seed: int, n_nodes: int, duration: float):
        if n_nodes < 2 or duration <= 0:
            raise ValueError("workload needs n_nodes >= 2 and duration > 0")
        self.seed = int(seed)
        self.n_nodes = int(n_nodes)
        self.duration = float(duration)
        rng = np.random.default_rng((0x7033, self.seed))
        count = max(2, int(round(OPS_PER_100S * self.duration / 100.0)))
        # Churn only inside the middle of the run: the first windows
        # measure the seeded steady state, the last measure recovery.
        times = np.sort(rng.uniform(0.2 * self.duration, 0.8 * self.duration, count))
        kinds = rng.random(count)
        picks = rng.random(count)
        self.ops: List[ChurnOp] = [
            ChurnOp(
                time=float(times[i]),
                kind="crash" if kinds[i] < 0.6 else "join",
                pick=float(picks[i]),
            )
            for i in range(count)
        ]

    def apply(self, op: ChurnOp, contestant) -> bool:
        """Fire ``op`` against one contestant (its clock must already sit
        at ``op.time``).  Returns False when the op was skipped by the
        survivor guard."""
        live = contestant.live_keys()
        if op.kind == "crash":
            if len(live) <= MIN_SURVIVORS:
                return False
            victim = op.resolve(live)
            contestant.crash(victim)
            return True
        contestant.join()
        return True

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "duration": self.duration,
            "ops": [
                {"time": op.time, "kind": op.kind, "pick": op.pick}
                for op in self.ops
            ],
        }
