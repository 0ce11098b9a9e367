"""Common interface for node-collection schemes.

Every scheme answers the two questions the paper's comparison turns on:

* ``pointers_for_bandwidth(W)`` — how many pointers can a node maintain
  when spending ``W`` bps on collection?
* ``bandwidth_for_pointers(p)`` — what does maintaining ``p`` pointers
  cost?

plus a ``useful_message_fraction`` diagnostic (what share of maintenance
traffic actually updates pointer state — PeerWindow's multicast scores
~1.0, periodic probing ~0.004 in the intro's example).  Both questions
refuse a negative or NaN argument by name, as
:class:`~repro.core.analytic.CostModel` does.
"""

from __future__ import annotations

import abc
from typing import Dict

from repro.core.analytic import non_negative
from repro.core.errors import ConfigError


class CollectionScheme(abc.ABC):
    """A node-collection/maintenance strategy's analytic cost model, for
    members whose sessions last ``mean_lifetime_s`` on average."""

    name: str = "abstract"
    heterogeneous: bool = False
    autonomic: bool = False

    def __init__(self, mean_lifetime_s: float = 3600.0):
        if not mean_lifetime_s > 0:
            raise ConfigError(f"mean_lifetime_s must be > 0, got {mean_lifetime_s!r}")
        self.mean_lifetime_s = mean_lifetime_s

    @classmethod
    def for_system(cls, n_nodes: float, mean_lifetime_s: float) -> "CollectionScheme":
        """The closed form in an ``n_nodes`` system (most ignore ``n_nodes``)."""
        return cls(mean_lifetime_s)

    def bandwidth_for_pointers(self, pointers: float) -> float:
        """bps needed to maintain ``pointers`` pointers."""
        return self._bandwidth(non_negative("pointers", pointers))

    def pointers_for_bandwidth(self, bandwidth_bps: float) -> float:
        """Pointers maintainable at ``bandwidth_bps``."""
        return self._pointers(non_negative("bandwidth_bps", bandwidth_bps))

    @abc.abstractmethod
    def _bandwidth(self, pointers: float) -> float:
        """:meth:`bandwidth_for_pointers` of a checked argument."""

    @abc.abstractmethod
    def _pointers(self, bandwidth_bps: float) -> float:
        """:meth:`pointers_for_bandwidth` of a checked argument."""

    @abc.abstractmethod
    def useful_message_fraction(self) -> float:
        """Fraction of maintenance messages that change pointer state."""

    def report(self, bandwidth_bps: float) -> Dict[str, object]:
        """One row of the baseline-comparison table."""
        return {
            "scheme": self.name,
            "bandwidth_bps": round(bandwidth_bps, 1),
            "pointers": round(self.pointers_for_bandwidth(bandwidth_bps), 1),
            "useful_fraction": round(self.useful_message_fraction(), 4),
            "heterogeneous": self.heterogeneous,
            "autonomic": self.autonomic,
        }
