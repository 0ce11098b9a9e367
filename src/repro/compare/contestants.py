"""Tournament contestants: PeerWindow plus every executable baseline.

Each contestant wraps a live network behind one tiny uniform surface
(``live_keys`` / ``crash`` / ``join`` / ``completeness``) so the
tournament driver and the shared :class:`~repro.compare.workload.
CompareWorkload` never care which protocol they are driving.  The
wrapped network itself satisfies the ``StreamWindower`` duck type, so
every contestant also produces ``repro.telemetry`` v1 frames.

The champion (PeerWindow) is judged against the full derived
:meth:`~repro.obs.health.HealthSpec.default` bands; baselines get
deliberately loose bands (:func:`baseline_health_spec`) — the scorecard
should show *how much worse* they are, not drown in their expected
breaches.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.baselines.pushpull import PushPullGossipNetwork
from repro.baselines.runtime import (
    ExplicitProbeNetwork,
    GossipNetwork,
    OneHopNetwork,
    RandomWalkNetwork,
)
from repro.obs.health import HealthSpec, Slo

__all__ = [
    "CONTESTANTS",
    "ContestantRun",
    "baseline_health_spec",
    "build_contestant",
    "contestant_names",
]

CHAMPION = "peerwindow"

#: Per-node bandwidth threshold for seeded PeerWindow populations.
_PW_THRESHOLD = 1e9


def baseline_health_spec(name: str, config, n_nodes: int) -> HealthSpec:
    """Loose SLO bands for a baseline contestant.

    These flag only outright pathology (detector burying half the net,
    gossip depth blowing past its TTL); a baseline performing like the
    paper predicts — worse than PeerWindow but functioning — stays
    green, so the scorecard's *numbers* carry the comparison.
    """
    ttl = max(2, int(math.ceil(2.0 * math.log(max(2, n_nodes)))))
    error_hi = {
        "gossip": 0.25,
        "push-pull-gossip": 0.25,
        "onehop": 0.15,
        "random-walk": 0.75,
        "explicit-probe": 0.6,
    }.get(name, 0.75)
    return HealthSpec(
        name=f"baseline:{name}",
        slos=[
            Slo("peerlist.error_rate",
                "membership staleness tolerated for this baseline",
                hi=error_hi),
            Slo("join.failure_rate", "joins through a live bootstrap", hi=0.25),
            Slo("probe.timeout_rate",
                "most probes must still return positively", hi=0.25),
            Slo("mcast.max_depth", "dissemination bounded by the TTL",
                hi=float(ttl + 2)),
            Slo("bandwidth.model_ratio",
                "measured bits within two orders of the §2 model",
                lo=0.02, hi=50.0),
        ],
    )


class ContestantRun:
    """One protocol instance competing in one tournament seed."""

    def __init__(self, name: str, net, spec: HealthSpec, champion: bool = False):
        self.name = name
        self.net = net
        self.spec = spec
        self.champion = champion

    # -- the uniform churn surface the workload drives ---------------------

    def live_keys(self) -> List[int]:
        return self.net.live_keys()

    def crash(self, key) -> None:
        self.net.crash(key)

    def join(self) -> None:
        self.net.join()

    def completeness(self) -> float:
        """Mean fraction of the oracle membership each live member holds."""
        return self.net.mean_completeness()

    def error_rate(self) -> float:
        return self.net.mean_error_rate()

    def transport_bits(self) -> float:
        return self.net.total_bits()


class _PeerWindowRun(ContestantRun):
    """Champion adapter: maps the uniform surface onto the core network."""

    def __init__(self, seed: int, n_nodes: int, parallel: Optional[int]):
        from repro.core.protocol import PeerWindowNetwork
        from repro.net.latency import PairwiseLatencyModel

        net = PeerWindowNetwork(
            topology=PairwiseLatencyModel(),
            master_seed=seed,
            parallel=parallel,
            observability=True,
        )
        net.seed_nodes([_PW_THRESHOLD] * n_nodes)
        spec = HealthSpec.default(net.config, n_nodes)
        super().__init__(CHAMPION, net, spec, champion=True)

    def live_keys(self) -> List[int]:
        return [k for k in sorted(self.net.nodes) if self.net.nodes[k].alive]

    def crash(self, key) -> None:
        self.net.crash(key)

    def join(self) -> None:
        live = self.live_keys()
        if live:
            self.net.add_node(_PW_THRESHOLD, bootstrap=live[0])

    def completeness(self) -> float:
        import numpy as np

        live = [self.net.nodes[k] for k in self.live_keys()]
        live_ids = self.net.live_ids()
        vals = []
        for node in live:
            correct = self.net.oracle_peer_ids(node, live_ids)
            if not correct:
                continue
            actual = set(node.peer_list.ids())
            vals.append(len(actual & correct) / len(correct))
        return float(np.mean(vals)) if vals else 1.0

    def transport_bits(self) -> float:
        snapshot = self.net.metrics_snapshot()
        counters = snapshot["counters"]
        return float(
            sum(counters[k] for k in sorted(counters)
                if k.startswith("transport.bits."))
        )


def _baseline_factory(cls) -> Callable[[int, int, Optional[int]], ContestantRun]:
    def build(seed: int, n_nodes: int, parallel: Optional[int]) -> ContestantRun:
        net = cls(n_nodes, master_seed=seed, observability=True)
        spec = baseline_health_spec(cls.name, net.config, n_nodes)
        return ContestantRun(cls.name, net, spec)

    return build


#: name -> factory(seed, n_nodes, parallel).  ``parallel`` only applies
#: to the champion (baselines are sequential by construction); insertion
#: order is the scorecard's display order.
CONTESTANTS: Dict[str, Callable[[int, int, Optional[int]], ContestantRun]] = {
    CHAMPION: lambda seed, n, parallel: _PeerWindowRun(seed, n, parallel),
    GossipNetwork.name: _baseline_factory(GossipNetwork),
    PushPullGossipNetwork.name: _baseline_factory(PushPullGossipNetwork),
    OneHopNetwork.name: _baseline_factory(OneHopNetwork),
    RandomWalkNetwork.name: _baseline_factory(RandomWalkNetwork),
    ExplicitProbeNetwork.name: _baseline_factory(ExplicitProbeNetwork),
}


def contestant_names() -> List[str]:
    return list(CONTESTANTS)


def build_contestant(
    name: str, seed: int, n_nodes: int, parallel: Optional[int] = None
) -> ContestantRun:
    try:
        factory = CONTESTANTS[name]
    except KeyError:
        known = ", ".join(CONTESTANTS)
        raise ValueError(f"unknown contestant {name!r} (known: {known})") from None
    return factory(seed, n_nodes, parallel if name == CHAMPION else None)
