"""PeerWindow core: the paper's primary contribution.

Public surface:

* identifiers and prefix relations — :class:`NodeId`, :func:`eigenstring`,
  :func:`covers`, :func:`audience_set`;
* state — :class:`Pointer`, :class:`PeerList`, :class:`TopNodeList`;
* the protocol — :class:`PeerWindowNode` (one participant, a thin
  coordinator over the join/levelshift/failure/dissemination/maintenance
  services) and :class:`PeerWindowNetwork` (a whole simulated deployment);
* execution — the sequential :class:`SimRuntime` and the
  conservative-parallel :class:`PartitionedRuntime`, the two simulated
  instantiations of :class:`repro.kernel.runtime.NodeRuntime`;
* the §2 analytic model — :class:`CostModel`, :func:`estimate_join_level`;
* configuration — :class:`ProtocolConfig`.
"""

from repro.core.analytic import (
    CostModel,
    estimate_join_level,
    expected_error_rate,
    expected_multicast_steps,
)
from repro.core.audience import (
    audience_set,
    correct_peer_list,
    covers,
    in_peer_list,
    same_eigenstring,
    stronger,
)
from repro.core.config import PAPER_COMMON_CONFIG, ProtocolConfig
from repro.core.context import NodeContext
from repro.core.dissemination import MulticastService
from repro.core.errors import (
    ConfigError,
    JoinError,
    MembershipError,
    NodeIdError,
    NotAliveError,
    PeerWindowError,
)
from repro.core.events import EventKind, EventRecord, apply_event
from repro.core.failure import FailureDetector
from repro.core.join import JoinService
from repro.core.levels import LevelController, LevelDecision
from repro.core.levelshift import LevelShiftService
from repro.core.maintenance import MaintenanceService
from repro.core.multicast import MulticastForwarder, TreeNode, plan_tree, tree_stats
from repro.core.node import NodeStats, PeerWindowNode
from repro.core.nodeid import NodeId, eigenstring
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.core.protocol import LevelReport, PeerWindowNetwork
from repro.core.refresh import LifetimeEstimator, RefreshManager
from repro.core.runtime import PartitionedRuntime, SimRuntime
from repro.core.topnodes import CrossPartTopList, TopNodeList

__all__ = [
    "CostModel",
    "ConfigError",
    "CrossPartTopList",
    "EventKind",
    "EventRecord",
    "FailureDetector",
    "JoinError",
    "JoinService",
    "LevelController",
    "LevelDecision",
    "LevelReport",
    "LevelShiftService",
    "LifetimeEstimator",
    "MaintenanceService",
    "MembershipError",
    "MulticastForwarder",
    "MulticastService",
    "NodeContext",
    "NodeId",
    "NodeIdError",
    "NodeStats",
    "NotAliveError",
    "PAPER_COMMON_CONFIG",
    "PartitionedRuntime",
    "PeerList",
    "PeerWindowError",
    "PeerWindowNetwork",
    "PeerWindowNode",
    "Pointer",
    "ProtocolConfig",
    "RefreshManager",
    "SimRuntime",
    "TopNodeList",
    "TreeNode",
    "apply_event",
    "audience_set",
    "correct_peer_list",
    "covers",
    "eigenstring",
    "estimate_join_level",
    "expected_error_rate",
    "expected_multicast_steps",
    "in_peer_list",
    "plan_tree",
    "same_eigenstring",
    "stronger",
    "tree_stats",
]
