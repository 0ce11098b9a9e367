"""Tournament contestants: PeerWindow plus every executable baseline.

A contestant is its network.  Every network the tournament builds has
one surface (``live_keys`` / ``crash`` / ``join`` for the shared
:class:`~repro.compare.workload.CompareWorkload`; ``mean_error_rate`` /
``mean_completeness`` / ``total_bits`` for the scorecard) and satisfies
the ``StreamWindower`` duck type, so every contestant also produces
``repro.telemetry`` v1 frames.  The baselines have that surface as
built (:data:`repro.baselines.DESIGNS`); PeerWindow gets it from
:class:`PeerWindowContestant`.  :func:`health_spec` says what each is
judged by.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines import DESIGNS
from repro.baselines.gossip import rounds_ttl
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel
from repro.obs.health import HealthSpec, Slo

__all__ = [
    "CONTESTANTS",
    "PeerWindowContestant",
    "build_contestant",
    "contestant_names",
    "health_spec",
]

CHAMPION = "peerwindow"

#: Per-node bandwidth threshold for seeded PeerWindow populations.
_PW_THRESHOLD = 1e9


class PeerWindowContestant(PeerWindowNetwork):
    """The champion: a seeded PeerWindow network with the contestant
    surface the baselines have as built."""

    name = CHAMPION

    def __init__(self, n_nodes: int, master_seed: int = 0,
                 parallel: Optional[int] = None):
        super().__init__(
            topology=PairwiseLatencyModel(),
            master_seed=master_seed,
            parallel=parallel,
            observability=True,
        )
        self.seed_nodes([_PW_THRESHOLD] * n_nodes)

    def live_keys(self) -> List[int]:
        return [k for k in sorted(self.nodes) if self.nodes[k].alive]

    def join(self) -> None:
        live = self.live_keys()
        if live:
            self.add_node(_PW_THRESHOLD, bootstrap=live[0])

    def mean_completeness(self) -> float:
        """Mean fraction of its oracle peer list each live node holds."""
        live_ids = self.live_ids()
        vals = []
        for key in self.live_keys():
            node = self.nodes[key]
            correct = self.oracle_peer_ids(node, live_ids)
            if correct:
                actual = set(node.peer_list.ids())
                vals.append(len(actual & correct) / len(correct))
        return float(np.mean(vals)) if vals else 1.0

    def total_bits(self) -> float:
        bits = self.runtime.transport_stats().get("bytes_by_kind", {})
        return float(sum(bits[kind] for kind in sorted(bits)))


#: name -> network class; insertion order is the scorecard's display order.
CONTESTANTS: Dict[str, type] = {CHAMPION: PeerWindowContestant, **DESIGNS}


def contestant_names() -> List[str]:
    return list(CONTESTANTS)


def build_contestant(
    name: str, seed: int, n_nodes: int, parallel: Optional[int] = None
):
    """The network ``name`` competes as.  ``parallel`` only applies to the
    champion (baselines are sequential by construction)."""
    try:
        cls = CONTESTANTS[name]
    except KeyError:
        known = ", ".join(CONTESTANTS)
        raise ValueError(f"unknown contestant {name!r} (known: {known})") from None
    extra = {"parallel": parallel} if name == CHAMPION else {}
    return cls(n_nodes, master_seed=seed, **extra)


def health_spec(net, n_nodes: int) -> HealthSpec:
    """The bands contestant ``net`` is judged by: the champion's full
    derived :meth:`~repro.obs.health.HealthSpec.default`, or a baseline's
    loose ones.  Those flag only outright pathology (detector burying
    half the net, gossip depth blowing past its TTL); a baseline
    performing like the paper predicts — worse than PeerWindow but
    functioning — stays green, so the scorecard's *numbers* carry the
    comparison."""
    if net.name == CHAMPION:
        return HealthSpec.default(net.config, n_nodes)
    return HealthSpec(
        name=f"baseline:{net.name}",
        slos=[
            Slo("peerlist.error_rate",
                "membership staleness tolerated for this baseline",
                hi=net.error_hi),
            Slo("join.failure_rate", "joins through a live bootstrap", hi=0.25),
            Slo("probe.timeout_rate",
                "most probes must still return positively", hi=0.25),
            Slo("mcast.max_depth", "dissemination bounded by the TTL",
                hi=float(rounds_ttl(n_nodes) + 2)),
            Slo("bandwidth.model_ratio",
                "measured bits within two orders of the §2 model",
                lo=0.02, hi=50.0),
        ],
    )
