"""Autonomic level control (§2, §4.3): the per-node controller.

Each node has a user-set upper bandwidth threshold ``W`` and measures its
actual maintenance cost ``w`` (EWMA of input bandwidth).  Whether a cost
lowers the level (``w > W``: l -> l+1, the peer list halves), raises it
(``w < raise_fraction * W``: l -> l-1, the list doubles) or holds is
:func:`~repro.core.analytic.level_shift`, the one rule both engines use;
this module keeps only what is per-node state.

Raising requires first downloading the newly-covered pointers from a
*stronger* node (§4.3); lowering just evicts out-of-prefix pointers.
Either way the node reports the level-change event to a top node, which
multicasts it around the audience set.

The controller also enforces a hold-down (one shift per check interval,
and never immediately reversing) so that measurement noise does not make
levels flap — the hysteresis between ``raise_fraction * W`` and ``W``
provides the static margin.
"""

from __future__ import annotations

import enum

from repro.core.analytic import level_shift
from repro.core.config import ProtocolConfig


class LevelDecision(enum.Enum):
    """A :func:`~repro.core.analytic.level_shift` result: its value is l's change."""

    HOLD = 0
    RAISE = -1  # l -> l-1, bigger peer list (higher level)
    LOWER = 1  # l -> l+1, smaller peer list (lower level)


class LevelController:
    """Pure decision logic; the node executes the shifts."""

    def __init__(self, config: ProtocolConfig, threshold_bps: float):
        self.config = config
        self.set_threshold(threshold_bps)
        self._last_decision = LevelDecision.HOLD
        self.raises = 0
        self.lowers = 0

    def decide(self, level: int, measured_bps: float) -> LevelDecision:
        """One control step.  ``measured_bps`` is the EWMA input cost."""
        if measured_bps < 0:
            raise ValueError("measured_bps must be >= 0")
        decision = LevelDecision(
            level_shift(level, measured_bps, self.threshold_bps, self.config.raise_fraction)
        )
        # Anti-flap: never immediately reverse the previous shift.
        if decision.value * self._last_decision.value < 0:
            self._last_decision = LevelDecision.HOLD
            return LevelDecision.HOLD
        self._last_decision = decision
        if decision is LevelDecision.RAISE:
            self.raises += 1
        elif decision is LevelDecision.LOWER:
            self.lowers += 1
        return decision

    def set_threshold(self, threshold_bps: float) -> None:
        """The user re-tunes the knob at runtime (§4.3: level adjustment
        can be *"due to ... the upper bandwidth threshold set by the
        user"*)."""
        if threshold_bps <= 0:
            raise ValueError("threshold must be positive")
        self.threshold_bps = float(threshold_bps)
