"""Population seeding for the detailed-engine harness.

The paper first *creates* its population, then churns it; this module is
that creation step for :class:`~repro.core.protocol.PeerWindowNetwork`.
Levels are assigned with the §2 cost model (the stationary point of the
autonomic controller), peer lists are built from ground truth, top-node
lists point at ``t`` random top nodes of each node's part, and top nodes
get cross-part lists (``merge`` bisects each pointer into its part's run
of rows) — so the system starts in the consistent state the protocol
would converge to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.analytic import CostModel
from repro.core.errors import JoinError
from repro.core.nodeid import NodeId, eigenstring
from repro.core.peerlist import PeerList

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
    if not created:
        return []
    # Every seeded node's own pointer, once, in one id-sorted table (a
    # level-0 list takes any id of its width and refuses another width);
    # a node's peers are the contiguous run of it under its eigenstring,
    # which install() copies out column by column.
    pointer_of = {nd.node_id.value: nd.self_pointer() for nd in created}
    population = PeerList(created[0].node_id, 0, net._addresses)
    for value in sorted(pointer_of):
        population.add(pointer_of[value])
    top_pools = {
        prefix: [pointer_of[t.node_id.value] for t in tops]
        for prefix, tops in tops_by_part.items()
    }
    size = net.config.top_list_size
    for nd in created:
        part_prefix = part_of[nd.node_id.value]
        pool = top_pools[part_prefix]
        chosen = (
            pool
            if len(pool) <= size
            else [pool[i] for i in rng.choice(len(pool), size, replace=False)]
        )
        is_top = nd.level == len(part_prefix)
        nd.install(nd.level, population, chosen, is_top)
        if is_top:
            for other_prefix, other_pool in top_pools.items():
                if other_prefix == part_prefix or not other_pool:
                    continue
                idx = rng.choice(len(other_pool), min(len(other_pool), size), replace=False)
                nd.cross_parts.merge(other_prefix, [other_pool[i] for i in idx])
    return [nd.address for nd in created]
