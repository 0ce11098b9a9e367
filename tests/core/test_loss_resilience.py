"""Failure injection: the protocol must converge despite message loss.

§4.2's ack/retry/redirect and §4.6's refresh/expiry exist exactly for
this; these tests run the detailed engine with independent message loss
and assert the peer lists still converge to (near) truth.
"""


from repro.core.protocol import PeerWindowNetwork
from tests.conftest import fast_config


def lossy_network(n=20, loss_rate=0.1, seed=9):
    config = fast_config(
        probe_interval=4.0,
        probe_misses_to_fail=3,  # tolerate lost probes/acks
    )
    net = PeerWindowNetwork(config=config, master_seed=seed, loss_rate=loss_rate)
    keys = net.seed_nodes([100_000.0] * n)
    net.run(until=20.0)
    return net, keys


class TestLossResilience:
    def test_join_completes_under_loss(self):
        net, keys = lossy_network(loss_rate=0.05)
        results = []
        for i in range(3):
            net.add_node(
                100_000.0, bootstrap=keys[i], on_done=lambda ok: results.append(ok)
            )
            net.run(until=net.sim.now + 30.0)
        assert any(results)  # most joins complete despite loss

    def test_leave_eventually_propagates(self):
        net, keys = lossy_network(loss_rate=0.1)
        victim_id = net.node(keys[2]).node_id
        net.crash(keys[2])
        net.run(until=net.sim.now + 120.0)
        holders = [
            n for n in net.live_nodes() if victim_id in n.peer_list
        ]
        # Retries + ring probing clean up; at most a straggler or two.
        assert len(holders) <= 2

    def test_mean_error_stays_bounded(self):
        net, keys = lossy_network(loss_rate=0.1)
        for k in (keys[1], keys[3]):
            net.crash(k)
        net.run(until=net.sim.now + 120.0)
        assert net.mean_error_rate() < 0.05

    def test_no_loss_is_exact(self):
        net, keys = lossy_network(loss_rate=0.0)
        net.crash(keys[2])
        net.run(until=net.sim.now + 120.0)
        assert net.mean_error_rate() == 0.0

    def test_probe_misses_do_not_cause_false_positives(self):
        """With probe_misses_to_fail=2 and 10% loss, live nodes must not
        be declared dead (false failure reports would evict live nodes)."""
        net, keys = lossy_network(loss_rate=0.1)
        net.run(until=net.sim.now + 100.0)
        live_ids = {n.node_id.value for n in net.live_nodes()}
        missing = 0
        for node in net.live_nodes():
            correct = net.oracle_peer_ids(node)
            missing += len(correct - set(node.peer_list.ids()))
        # A false positive would show as a missing live pointer that never
        # heals; allow a transient straggler.
        assert missing <= 2
