"""Baseline node-collection schemes PeerWindow is compared against.

The paper's introduction and related-work sections position PeerWindow
against these maintenance/collection strategies.  Each has two forms and
no third: a closed-form ``*Scheme`` in the module named below (same
bandwidth accounting, so ``repro baselines`` is apples-to-apples) and an
executable ``*Network`` in :mod:`~repro.baselines.runtime`.

* :mod:`~repro.baselines.explicit_probe` — heartbeat every neighbor
  periodically.  The intro's arithmetic: with 2-hour lifetimes and 30 s
  probes, 99.58 % of probes return positively (pure waste); 10 kbps
  maintains only 600 pointers.
* :mod:`~repro.baselines.gossip` — push-gossip multicast of events
  (the §2 alternative to the tree: higher redundancy r, so fewer pointers
  per bps).
* :mod:`~repro.baselines.onehop` — the one-hop DHT [7]: every node keeps
  the full membership, homogeneously — weak nodes pay the same as strong.
* :mod:`~repro.baselines.random_walk` — Mercury-style random-walk
  collection: pointers gathered by active walking, with per-pointer cost
  that does not amortize.
* :mod:`~repro.baselines.pushpull` — push–pull hybrid gossip: lean push
  seeding plus periodic anti-entropy pulls; lower redundancy than pure
  push but a standing digest cost.

:mod:`~repro.baselines.runtime` holds the *executable* form of each
strategy, fully instrumented (span tracing, metrics, transport
accounting) and satisfying the ``StreamWindower`` surface, so the
``repro compare`` tournament can run and watch every contestant over
identical seeded workloads.
"""

from repro.baselines.common import CollectionScheme, SchemeReport
from repro.baselines.explicit_probe import ExplicitProbeScheme
from repro.baselines.gossip import GossipMulticastScheme
from repro.baselines.onehop import OneHopDHTScheme
from repro.baselines.pushpull import PushPullGossipNetwork, PushPullGossipScheme
from repro.baselines.random_walk import RandomWalkScheme
from repro.baselines.runtime import (
    BaselineNetwork,
    ExplicitProbeNetwork,
    GossipNetwork,
    OneHopNetwork,
    RandomWalkNetwork,
)

__all__ = [
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
    "SchemeReport",
]
