"""The paper's closed-form performance model (§2).

With average lifetime ``L`` seconds, ``m`` state changes per lifetime
(joining and leaving included), multicast redundancy ``r`` (messages
received per event), and event-message size ``i`` bits, maintaining one
pointer costs ``m*r/L`` messages per second, so a node spending ``W`` bps
collects

    ``p = W * L / (m * r * i)``                      (§2)

pointers.  The worked example: ``L=3600, m=3, i=1000, r=1`` gives a 5 kbps
modem node ``p = 6000`` pointers — *"the cost of collecting 1,000 pointers
being less than 1 kbps"* (abstract).  These functions regenerate that
table and hold the one level rule (§2, §4.3) both engines and the
predictor call: the stationary level and the shift decision, each in a
scalar and an array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigError

#: §2's worked example: a node raises its level once its cost falls below
#: half its threshold (a 5 kbps modem node raises below 2.5 kbps).
RAISE_FRACTION = 0.5


def non_negative(name: str, value: float) -> float:
    """``value``, refused by ``name`` unless it is ``>= 0`` (a NaN is not)."""
    if not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class CostModel:
    """Parameters of the §2 analytic model."""

    mean_lifetime_s: float = 3600.0
    changes_per_lifetime: float = 3.0  # m: join + leave + one change
    redundancy: float = 1.0  # r: tree multicast delivers once
    message_bits: float = 1000.0  # i

    def __post_init__(self) -> None:
        if not all(v > 0 for v in (
            self.mean_lifetime_s,
            self.changes_per_lifetime,
            self.redundancy,
            self.message_bits,
        )):
            raise ConfigError("all cost-model parameters must be positive")

    # -- §2 formulas ------------------------------------------------------

    def messages_per_pointer_per_second(self) -> float:
        """``m*r/L``: event messages received per maintained pointer."""
        return self.changes_per_lifetime * self.redundancy / self.mean_lifetime_s

    def bandwidth_for_pointers(self, pointers: float) -> float:
        """Input bandwidth (bps) to maintain ``pointers`` pointers."""
        non_negative("pointers", pointers)
        return pointers * self.messages_per_pointer_per_second() * self.message_bits

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        """``p = W*L/(m*r*i)``: pointers collectable at ``W`` bps."""
        non_negative("bandwidth_bps", bandwidth_bps)
        return (
            bandwidth_bps
            * self.mean_lifetime_s
            / (self.changes_per_lifetime * self.redundancy * self.message_bits)
        )

    def bandwidth_per_1000_pointers(self) -> float:
        """The abstract's headline number (bps per 1,000 pointers)."""
        return self.bandwidth_for_pointers(1000.0)

    # -- level assignment ---------------------------------------------------

    def peer_list_size(self, n_nodes: float, level: int) -> float:
        """Expected peer-list size ``N / 2^l`` (uniform ids, §1)."""
        if n_nodes < 0 or level < 0:
            raise ConfigError("n_nodes and level must be >= 0")
        return n_nodes / (2.0**level)

    def level_cost(self, n_nodes: float, level: int) -> float:
        """Input bandwidth (bps) of running at ``level`` in an ``n_nodes``
        system."""
        return self.bandwidth_for_pointers(self.peer_list_size(n_nodes, level))


def stationary_level(cost0: float, threshold: float, max_level: int) -> int:
    """The autonomic controller's stationary point: the smallest level ``l``
    (at most ``max_level``) whose cost ``cost0 / 2^l`` fits under
    ``threshold``, with ``cost0 = R·i`` the level-0 cost in bps."""
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    if cost0 <= threshold:
        return 0
    # cost(l) = cost(0) / 2^l <= W  =>  l >= log2(cost(0)/W)
    return min(math.ceil(math.log2(cost0 / threshold)), max_level)


def stationary_levels(cost0: float, thresholds: np.ndarray, max_level: int) -> np.ndarray:
    """:func:`stationary_level` of each threshold, as ``int16``.  ``np.log2``
    may differ from ``math.log2`` in the last bit, not in the ceiling."""
    if not (thresholds > 0).all():
        raise ConfigError("thresholds must be positive")
    levels = np.zeros(thresholds.shape, dtype=np.int16)
    above = cost0 > thresholds
    levels[above] = np.minimum(np.ceil(np.log2(cost0 / thresholds[above])), max_level)
    return levels


def level_shift(level: int, cost: float, threshold: float, raise_fraction: float) -> int:
    """The shift decision at a measured ``cost``: +1 lowers (l -> l+1) above
    ``threshold``, -1 raises (l -> l-1) below ``raise_fraction * threshold``
    if ``level > 0``, 0 holds.  Stateless: the anti-flap hold is per-node
    state, :class:`~repro.core.levels.LevelController`'s."""
    if cost > threshold:
        return 1
    if cost < raise_fraction * threshold and level > 0:
        return -1
    return 0


def level_shifts(
    levels: np.ndarray, costs: np.ndarray, thresholds: np.ndarray, raise_fraction: float
) -> np.ndarray:
    """:func:`level_shift` of each node, as ``int8``."""
    lower = costs > thresholds
    raise_ = (costs < raise_fraction * thresholds) & (levels > 0) & ~lower
    return lower.astype(np.int8) - raise_


def estimate_join_level(
    top_level: int, top_cost_bps: float, own_threshold_bps: float
) -> int:
    """The §4.3 join-time level estimate:

        ``l_X = ceil( l_T + log2(W_T / W_X) )``, clamped at 0.

    ``top_level``/``top_cost_bps`` are reported by the contacted top node
    (its level and its dynamically measured bandwidth cost).  Not
    :func:`stationary_level`: the ``- 1e-9`` guard takes a ``log2`` within
    1e-9 above an integer (a power-of-two ratio off in its last bits) down
    to that integer, where the stationary rule takes the next level, so
    folding the two would move the detailed engine's join levels.
    """
    if top_level < 0:
        raise ConfigError("top_level must be >= 0")
    if own_threshold_bps <= 0:
        raise ConfigError("own threshold must be positive")
    if top_cost_bps <= 0:
        # A freshly measured-zero top node: nothing is cheaper than free,
        # so the joiner can afford the top level itself.
        return top_level
    raw = top_level + math.log2(top_cost_bps / own_threshold_bps)
    return max(0, math.ceil(raw - 1e-9))


def expected_error_rate(
    multicast_delay_s: float, mean_lifetime_s: float
) -> float:
    """§5.3's error-rate approximation:
    ``error_rate = multicast_delay / lifetime`` (capped at 1)."""
    if multicast_delay_s < 0 or mean_lifetime_s <= 0:
        raise ConfigError("delay must be >= 0 and lifetime > 0")
    return min(1.0, multicast_delay_s / mean_lifetime_s)


def expected_multicast_steps(n_nodes: float) -> float:
    """§4.2 property 3: an event reaches the audience in about
    ``log2 N`` steps."""
    if n_nodes < 1:
        return 0.0
    return math.log2(n_nodes)
