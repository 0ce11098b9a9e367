"""Population seeding for the detailed-engine harness.

The paper first *creates* its population, then churns it; this module is
that creation step for :class:`~repro.core.protocol.PeerWindowNetwork`.
Levels are assigned with the §2 cost model (the stationary point of the
autonomic controller), peer lists are built from ground truth, top-node
lists point at ``t`` random top nodes of each node's part, and top nodes
get cross-part lists — so the system starts in the consistent state the
protocol would converge to.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analytic import CostModel
from repro.core.errors import JoinError, NodeIdError
from repro.core.nodeid import NodeId, eigenstring

#: A seed spec: a bare threshold, or (threshold, node_id), or a full dict.
SeedSpec = Union[float, Tuple[float, NodeId], Dict[str, Any]]


def seed_network(
    net,
    specs: Sequence[SeedSpec],
    mean_lifetime_s: float = 3600.0,
    changes_per_lifetime: float = 3.0,
    forced_level: Optional[int] = None,
) -> List[Any]:
    """Install an initial population into ``net``; returns keys in spec
    order.  (The body of ``PeerWindowNetwork.seed_nodes``.)"""
    if net.nodes:
        raise JoinError("seed_nodes requires an empty network")
    model = CostModel(
        mean_lifetime_s=mean_lifetime_s,
        changes_per_lifetime=changes_per_lifetime,
        message_bits=net.config.event_message_bits,
    )
    normalized: List[Dict[str, Any]] = []
    for spec in specs:
        if isinstance(spec, dict):
            normalized.append(dict(spec))
        elif isinstance(spec, tuple):
            normalized.append({"threshold_bps": spec[0], "node_id": spec[1]})
        else:
            normalized.append({"threshold_bps": float(spec)})
    n = len(normalized)
    created = []
    for spec in normalized:
        node = net._make_node(
            spec.get("node_id"),
            spec["threshold_bps"],
            attached_info=spec.get("attached_info"),
        )
        if forced_level is not None:
            node.level = forced_level
        elif "level" in spec:
            node.level = int(spec["level"])
        else:
            node.level = min(
                model.min_affordable_level(n, spec["threshold_bps"]),
                net.config.id_bits,
            )
        created.append(node)

    # Part structure: the shortest existing eigenstring that prefixes
    # each node's id.
    eigen = sorted({eigenstring(nd.node_id, nd.level) for nd in created}, key=len)
    part_of: Dict[int, str] = {}
    for nd in created:
        bitstr = nd.node_id.bitstring()
        for e in eigen:
            if bitstr.startswith(e):
                part_of[nd.node_id.value] = e
                break
    parts: Dict[str, List[Any]] = {}
    for nd in created:
        parts.setdefault(part_of[nd.node_id.value], []).append(nd)
    tops_by_part = {
        prefix: [nd for nd in members if nd.level == len(prefix)]
        for prefix, members in parts.items()
    }

    rng = net.streams.get("seeding")
    pointer_of = {nd.node_id.value: nd.self_pointer() for nd in created}
    # A node's peers are one contiguous run of the id-sorted population
    # (everything under its eigenstring; install() skips the node itself),
    # handed over in spec order, the order the peer list keeps them in.
    if len({nd.node_id.bits for nd in created}) > 1:
        raise NodeIdError("cannot compare ids of different widths")
    rank = {nd.node_id.value: k for k, nd in enumerate(created)}
    values = sorted(rank)
    for nd in created:
        shift = nd.node_id.bits - nd.level
        low = nd.node_id.value >> shift << shift
        run = values[bisect_left(values, low) : bisect_left(values, low + (1 << shift))]
        peers = [pointer_of[v] for v in sorted(run, key=rank.__getitem__)]
        part_prefix = part_of[nd.node_id.value]
        tops = tops_by_part[part_prefix]
        pool = [pointer_of[t.node_id.value] for t in tops]
        chosen = (
            list(pool)
            if len(pool) <= net.config.top_list_size
            else [
                pool[i]
                for i in rng.choice(len(pool), net.config.top_list_size, replace=False)
            ]
        )
        is_top = nd.level == len(part_prefix)
        nd.install(nd.level, peers, chosen, is_top)
        if is_top:
            for other_prefix, other_tops in tops_by_part.items():
                if other_prefix == part_prefix or not other_tops:
                    continue
                other_pool = [pointer_of[t.node_id.value] for t in other_tops]
                take = min(len(other_pool), net.config.top_list_size)
                idx = rng.choice(len(other_pool), take, replace=False)
                nd.cross_parts.merge(other_prefix, [other_pool[i] for i in idx])
    return [nd.address for nd in created]
