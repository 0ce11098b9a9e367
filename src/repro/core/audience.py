"""Peer-list membership and audience-set predicates.

The protocol's central insight (§2): whether node A's peer list should
contain node B — equivalently, whether A is in B's *audience set* — is a
pure function of their identifiers and A's level:

    ``covers(A.id, A.level, B.id)  :=  A.id and B.id agree on A's first
    A.level bits``

so membership never needs to be stored.  This module is that single
predicate plus the derived set computations used by the ground-truth
checker, the multicast planner, and the worked figure-1/figure-2 examples.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Sequence, Tuple

from repro.core.nodeid import NodeId
from repro.core.errors import NodeIdError


def covers(holder_id: NodeId, holder_level: int, subject_id: NodeId) -> bool:
    """True iff a ``holder_level``-level node with ``holder_id`` keeps (or
    should keep) a pointer to ``subject_id``.

    Equivalently: the holder's eigenstring is a prefix of the subject's id,
    i.e. the holder is in the subject's audience set.
    """
    if holder_level < 0 or holder_level > holder_id.bits:
        raise NodeIdError(f"invalid holder level {holder_level}")
    return holder_id.shares_prefix(subject_id, holder_level)


def in_peer_list(owner_id: NodeId, owner_level: int, other_id: NodeId) -> bool:
    """Whether ``other_id`` belongs in the peer list of the given owner.

    This is the same relation as :func:`covers` — stated separately so call
    sites read in the direction they mean.
    """
    return covers(owner_id, owner_level, other_id)


def prefix_range(
    sorted_values: Sequence[int], value: int, bits: int, length: int
) -> Tuple[int, int]:
    """``(start, stop)`` of the run of ascending ``bits``-wide id values
    that share the first ``length`` bits of ``value``.

    Sharing a prefix is an interval of the id space, so everything
    :func:`covers` selects from a sorted population is one slice of it —
    two bisects instead of one predicate call per member.
    """
    if length < 0 or length > bits:
        raise NodeIdError(f"prefix length {length} out of range")
    shift = bits - length
    low = value >> shift << shift
    return bisect_left(sorted_values, low), bisect_left(sorted_values, low + (1 << shift))


def same_eigenstring(
    a_id: NodeId, a_level: int, b_id: NodeId, b_level: int
) -> bool:
    """Whether two nodes share an eigenstring (same level, same prefix).

    Nodes with the same eigenstring have identical peer lists (peer-list
    property 1) and form one failure-detection ring (§4.1).
    """
    return a_level == b_level and a_id.shares_prefix(b_id, a_level)


def stronger(a_id: NodeId, a_level: int, b_id: NodeId, b_level: int) -> bool:
    """Peer-list property 2: node *a* is stronger than node *b* iff *a*'s
    eigenstring is a **proper** prefix of *b*'s eigenstring."""
    return a_level < b_level and a_id.shares_prefix(b_id, a_level)


def audience_set(
    subject_id: NodeId,
    members: Iterable[Tuple[NodeId, int]],
) -> List[Tuple[NodeId, int]]:
    """Materialize the audience set of ``subject_id`` from an iterable of
    ``(node_id, level)`` pairs (ground truth / worked examples; the
    protocol itself never materializes audiences)."""
    return [
        (nid, lvl) for nid, lvl in members if covers(nid, lvl, subject_id)
    ]


def correct_peer_list(
    owner_id: NodeId,
    owner_level: int,
    members: Iterable[Tuple[NodeId, int]],
) -> List[Tuple[NodeId, int]]:
    """The ground-truth peer list: every live node sharing the owner's
    first ``owner_level`` bits (used by the error-rate checker)."""
    return [
        (nid, lvl)
        for nid, lvl in members
        if in_peer_list(owner_id, owner_level, nid)
    ]
