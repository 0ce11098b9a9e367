"""Random-walk collection baseline (Mercury [1] style).

Mercury gathers remote-node information by launching random walks over a
small-world overlay and sampling the nodes the walk visits.  Collection
is *active*: every pointer costs a fresh walk step, and pointers decay
with churn, so holding ``p`` fresh pointers costs ``p / lifetime`` walk
messages per second — no multicast amortization.

:class:`RandomWalkScheme` gives the closed-form costs; the executable
form, where duplicate visits waste measured steps (the scheme's second
inefficiency), is :class:`repro.baselines.runtime.RandomWalkNetwork`.
"""

from __future__ import annotations

from repro.baselines.common import CollectionScheme


class RandomWalkScheme(CollectionScheme):
    """Active collection by random walking."""

    name = "random-walk"
    heterogeneous = True
    autonomic = True

    def __init__(
        self,
        mean_lifetime_s: float = 3600.0,
        message_bits: float = 1000.0,
        steps_per_pointer: float = 1.5,
        target_staleness: float = 0.05,
    ):
        """``steps_per_pointer`` accounts for duplicate visits (~1.2-2 for
        small-world graphs at modest coverage).

        ``target_staleness`` is the tolerated stale fraction of the
        collected set.  Walking is pull-based: the collector never learns
        of departures, so a pointer refreshed every ``T`` seconds is stale
        for about ``T / (2 L)`` of the time; holding staleness at ``ε``
        requires ``T = 2 ε L``.  (PeerWindow's push keeps staleness under
        0.5 % for free — the default 5 % here is already generous to the
        baseline.)
        """
        if min(mean_lifetime_s, message_bits, steps_per_pointer) <= 0:
            raise ValueError("parameters must be positive")
        if not 0.0 < target_staleness < 1.0:
            raise ValueError("target_staleness must be in (0, 1)")
        self.mean_lifetime_s = mean_lifetime_s
        self.message_bits = message_bits
        self.steps_per_pointer = steps_per_pointer
        self.target_staleness = target_staleness

    @property
    def refresh_period_s(self) -> float:
        return 2.0 * self.target_staleness * self.mean_lifetime_s

    def bandwidth_for_pointers(self, pointers: float) -> float:
        # Each pointer must be re-walked every refresh period at
        # steps_per_pointer messages a time.
        refresh_rate = pointers / self.refresh_period_s
        return refresh_rate * self.steps_per_pointer * self.message_bits

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        return (
            bandwidth_bps
            * self.refresh_period_s
            / (self.steps_per_pointer * self.message_bits)
        )

    def useful_message_fraction(self) -> float:
        return 1.0 / self.steps_per_pointer
