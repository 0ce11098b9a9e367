"""Stateful fuzzing: random operation sequences against the invariants.

A hypothesis ``RuleBasedStateMachine`` drives the detailed engine with an
arbitrary interleaving of joins, graceful leaves, crashes, info changes,
forced level shifts, and time advancement; after quiescence the machine
checks the global invariants:

* every live node's peer list equals the oracle (prefix rule over live
  membership) up to bounded transients;
* no dead node appears in any list after the convergence window;
* eigenstring-group members agree on their shared peer list;
* no node's state holds a received object (a ``Pointer`` or ``Message``);
* the network never deadlocks (events keep draining).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.analysis.detsan import held_objects
from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config


class PeerWindowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.net = None
        self.keys = []

    @initialize(seed=st.integers(min_value=0, max_value=1000))
    def setup(self, seed):
        config = fast_config(
            probe_interval=4.0,
            level_check_interval=1e6,  # shifts only when the rule fires
        )
        self.net = PeerWindowNetwork(config=config, master_seed=seed)
        self.keys = list(self.net.seed_nodes([1e9] * 10))
        self.net.run(until=5.0)

    def _live_keys(self):
        return [k for k in self.keys if k in self.net.nodes and self.net.nodes[k].alive]

    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def join(self, idx):
        live = self._live_keys()
        if not live:
            return
        bootstrap = live[idx % len(live)]
        self.keys.append(self.net.add_node(1e9, bootstrap=bootstrap))
        self.net.run(until=self.net.sim.now + 8.0)

    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def leave(self, idx):
        live = self._live_keys()
        if len(live) <= 3:
            return
        self.net.leave(live[idx % len(live)])
        self.net.run(until=self.net.sim.now + 5.0)

    @rule(idx=st.integers(min_value=0, max_value=10_000))
    def crash(self, idx):
        live = self._live_keys()
        if len(live) <= 3:
            return
        self.net.crash(live[idx % len(live)])
        self.net.run(until=self.net.sim.now + 5.0)

    @rule(idx=st.integers(min_value=0, max_value=10_000), tag=st.integers())
    def info_change(self, idx, tag):
        live = self._live_keys()
        if not live:
            return
        self.net.nodes[live[idx % len(live)]].update_attached_info({"tag": tag})
        self.net.run(until=self.net.sim.now + 2.0)

    @rule()
    def advance_time(self):
        self.net.run(until=self.net.sim.now + 15.0)

    @invariant()
    def population_positive(self):
        if self.net is not None:
            assert len(self.net.live_nodes()) >= 1

    def teardown(self):
        if self.net is None:
            return
        # Quiescence: let detection, retries, and multicasts finish.
        self.net.run(until=self.net.sim.now + 60.0)
        live = self.net.live_nodes()
        live_ids = {n.node_id.value for n in live}
        for node in live:
            actual = set(node.peer_list.ids())
            # No dead entries survive the convergence window.
            assert actual <= live_ids, (
                f"stale pointers at {node.address}: {actual - live_ids}"
            )
            # Missing entries only from join/leave races; bound them.
            oracle = self.net.oracle_peer_ids(node)
            assert len(oracle - actual) <= 1
        # Group agreement: same eigenstring -> same list.
        by_eigen = {}
        for node in live:
            by_eigen.setdefault(node.eigenstring, []).append(node)
        for group in by_eigen.values():
            lists = {tuple(n.peer_list.ids()) for n in group}
            assert len(lists) == 1
        for node in self.net.nodes.values():
            assert held_objects(node) == []


PeerWindowMachine.TestCase.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None, derandomize=True
)
TestPeerWindowStateful = PeerWindowMachine.TestCase
