"""PeerWindow reproduction (ICPP 2005).

A full, laptop-scale reproduction of *"PeerWindow: An Efficient,
Heterogeneous, and Autonomic Node Collection Protocol"* (Hu, Li, Yu,
Dong, Zheng — Tsinghua University, ICPP 2005), including every substrate
the paper depends on: the ONSP-style discrete-event platform
(:mod:`repro.sim`), the GT-ITM transit-stub underlay (:mod:`repro.net`),
the Gnutella measurement workloads (:mod:`repro.workloads`), the protocol
itself (:mod:`repro.core`) over a backend-neutral kernel
(:mod:`repro.kernel`) with a UDP backend (:mod:`repro.live`), comparison
baselines (:mod:`repro.baselines`) and their tournament
(:mod:`repro.compare`), the §3 GUESS application (:mod:`repro.apps`) and
the §5 experiment harness (:mod:`repro.experiments`); around them,
observability (:mod:`repro.obs`), fault injection (:mod:`repro.chaos`) and
static analysis (:mod:`repro.analysis`).

Quickstart::

    from repro import PeerWindowNetwork

    net = PeerWindowNetwork(master_seed=1)
    keys = net.seed_nodes([50_000.0] * 64)   # 64 nodes, 50 kbps thresholds
    net.run(until=600.0)                     # ten simulated minutes
    print(net.level_histogram())
"""

from repro.core import (
    CostModel,
    EventKind,
    EventRecord,
    NodeId,
    PeerList,
    PeerWindowNetwork,
    PeerWindowNode,
    Pointer,
    ProtocolConfig,
    TopNodeList,
    audience_set,
    covers,
    eigenstring,
    estimate_join_level,
    plan_tree,
    tree_stats,
)

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "EventKind",
    "EventRecord",
    "NodeId",
    "PeerList",
    "PeerWindowNetwork",
    "PeerWindowNode",
    "Pointer",
    "ProtocolConfig",
    "TopNodeList",
    "audience_set",
    "covers",
    "eigenstring",
    "estimate_join_level",
    "plan_tree",
    "tree_stats",
    "__version__",
]
