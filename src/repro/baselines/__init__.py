"""Baseline node-collection designs PeerWindow is compared against.

The paper's introduction and related-work sections position PeerWindow
against these maintenance/collection strategies.  Each design is one
module holding its constants, its closed-form ``*Scheme`` (same
bandwidth accounting, so ``repro baselines`` is apples-to-apples) and
its executable ``*Network``, which the ``repro compare`` tournament runs
and watches directly.  :data:`DESIGNS` is the one list of them:

* :mod:`~repro.baselines.gossip` — push-gossip multicast of events
  (the §2 alternative to the tree: higher redundancy r, so fewer pointers
  per bps).
* :mod:`~repro.baselines.pushpull` — push–pull hybrid gossip: lean push
  seeding plus periodic anti-entropy pulls; lower redundancy than pure
  push but a standing digest cost.
* :mod:`~repro.baselines.onehop` — the one-hop DHT [7]: every node keeps
  the full membership, homogeneously — weak nodes pay the same as strong.
* :mod:`~repro.baselines.random_walk` — Mercury-style random-walk
  collection: pointers gathered by active walking, with per-pointer cost
  that does not amortize.
* :mod:`~repro.baselines.explicit_probe` — heartbeat every neighbor
  periodically.  The intro's arithmetic: with 2-hour lifetimes and 30 s
  probes, 99.58 % of probes return positively (pure waste); 10 kbps
  maintains only 600 pointers.
"""

from typing import Dict, List, Type

from repro.baselines.common import CollectionScheme
from repro.baselines.explicit_probe import ExplicitProbeNetwork, ExplicitProbeScheme
from repro.baselines.gossip import GossipMulticastScheme, GossipNetwork
from repro.baselines.onehop import OneHopDHTScheme, OneHopNetwork
from repro.baselines.pushpull import PushPullGossipNetwork, PushPullGossipScheme
from repro.baselines.random_walk import RandomWalkNetwork, RandomWalkScheme
from repro.baselines.runtime import BaselineNetwork

#: Every design's network under its contestant name, in scorecard order.
DESIGNS: Dict[str, Type[BaselineNetwork]] = {net.name: net for net in (
    GossipNetwork, PushPullGossipNetwork, OneHopNetwork, RandomWalkNetwork,
    ExplicitProbeNetwork,
)}


def closed_forms(n_nodes: float, mean_lifetime_s: float) -> List[CollectionScheme]:
    """Every design's closed form in an ``n_nodes`` system whose sessions
    last ``mean_lifetime_s`` on average, in :data:`DESIGNS` order."""
    return [net.scheme.for_system(n_nodes, mean_lifetime_s) for net in DESIGNS.values()]


__all__ = [
    "DESIGNS",
    "BaselineNetwork",
    "CollectionScheme",
    "ExplicitProbeNetwork",
    "ExplicitProbeScheme",
    "GossipMulticastScheme",
    "GossipNetwork",
    "OneHopDHTScheme",
    "OneHopNetwork",
    "PushPullGossipNetwork",
    "PushPullGossipScheme",
    "RandomWalkNetwork",
    "RandomWalkScheme",
    "closed_forms",
]
