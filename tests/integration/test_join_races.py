"""Joins racing concurrent event multicasts (the stale-download completion).

A joiner is in nobody's audience until its JOIN multicast lands, so an
event whose dissemination completes inside the join window never reaches
it through the tree.  The download server closes the race by copying
events it first sees within ``download_grace`` of serving a snapshot to
the requester (DESIGN.md §8, ``event-copy`` messages).

Both scenarios here are minimized hypothesis counterexamples from the
stateful fuzzer (`test_stateful_fuzz.py`), pinned as deterministic
regressions:

* seed 468: a join concurrent with a crash obituary left the joiner
  holding the dead node's pointer forever — the joiner is not the dead
  node's ring predecessor in its own view, so §4.1 probing never touches
  it, and §4.6 expiry is hours away;
* seed 1: an early broken fix sent the copies as ``mcast`` messages,
  which marked the event seen — the joiner then acked a later real tree
  delivery as a duplicate *without forwarding*, black-holing its subtree
  (members ended up missing pointers after nothing but joins).
"""

from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config

CONFIG = fast_config(
    probe_interval=4.0,
    level_check_interval=1e6,  # no autonomic shifts: isolate the join race
)


def _live_keys(net, keys):
    return [k for k in keys if k in net.nodes and net.nodes[k].alive]


def _assert_converged(net):
    live = net.live_nodes()
    live_ids = {n.node_id.value for n in live}
    for node in live:
        actual = set(node.peer_list.ids())
        assert actual <= live_ids, (
            f"stale pointers at {node.address}: {actual - live_ids}"
        )
        oracle = net.oracle_peer_ids(node)
        assert len(oracle - actual) <= 1, (
            f"absent pointers at {node.address}: {oracle - actual}"
        )


def test_join_during_obituary_dissemination():
    """Seed 468: crash, then a join whose download races the obituary."""
    net = PeerWindowNetwork(config=CONFIG, master_seed=468)
    keys = list(net.seed_nodes([1e9] * 10))
    net.run(until=20.0)
    for _ in range(2):  # crash -> join, twice (the minimized sequence)
        net.crash(_live_keys(net, keys)[0])
        net.run(until=net.sim.now + 5.0)
        keys.append(net.add_node(1e9, bootstrap=_live_keys(net, keys)[0]))
        net.run(until=net.sim.now + 8.0)
    net.run(until=net.sim.now + 60.0)
    _assert_converged(net)


def test_join_chain_does_not_black_hole_multicasts():
    """Seed 1: nine back-to-back joins; every JOIN multicast must still
    reach every member even though most members recently served or
    received download-grace copies."""
    net = PeerWindowNetwork(config=CONFIG, master_seed=1)
    keys = list(net.seed_nodes([1e9] * 10))
    net.run(until=5.0)
    for _ in range(9):
        keys.append(net.add_node(1e9, bootstrap=_live_keys(net, keys)[0]))
        net.run(until=net.sim.now + 8.0)
    net.run(until=net.sim.now + 60.0)
    _assert_converged(net)
