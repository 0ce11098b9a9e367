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
table and supply the level-assignment rule both engines use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import ConfigError


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

    def min_affordable_level(self, n_nodes: float, threshold_bps: float) -> int:
        """The strongest (smallest-value) level whose maintenance cost fits
        under ``threshold_bps``.  This is the stationary point of the
        autonomic controller and the level the join estimator converges to.
        """
        if threshold_bps <= 0:
            raise ConfigError("threshold must be positive")
        if n_nodes <= 0:
            return 0
        cost_l0 = self.level_cost(n_nodes, 0)
        if cost_l0 <= threshold_bps:
            return 0
        # cost(l) = cost(0) / 2^l <= W  =>  l >= log2(cost(0)/W)
        return int(math.ceil(math.log2(cost_l0 / threshold_bps)))


def estimate_join_level(
    top_level: int, top_cost_bps: float, own_threshold_bps: float
) -> int:
    """The §4.3 join-time level estimate:

        ``l_X = ceil( l_T + log2(W_T / W_X) )``, clamped at 0.

    ``top_level``/``top_cost_bps`` are reported by the contacted top node
    (its level and its dynamically measured bandwidth cost).
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
