#!/usr/bin/env python
"""Autonomy in action (§2, §5.3): levels track the environment.

Part 1 — the §5.3 sweep: the same system under different lifetime
regimes.  Short lifetimes (Lifetime_Rate 0.1) push nodes deep (the paper
reports ~10 levels, ~15% at level 0); long lifetimes collapse everyone to
level 0 and error rates fall inversely.

Part 2 — a single node's controller, live: we throttle one node's
threshold mid-run on the detailed engine and watch it shift levels, then
release the throttle and watch it climb back.

Run:  python examples/autonomic_adaptation.py
"""

from repro import PeerWindowNetwork, ProtocolConfig
from repro.experiments.report import print_table
from repro.experiments.scalable import ScalableParams
from repro.experiments.figures import fig11_adaptivity_levels


def sweep() -> None:
    base = ScalableParams(n_target=10_000, duration_s=600.0, warmup_s=200.0, seed=3)
    rates = [0.1, 0.5, 1.0, 5.0]
    rows = []
    for p in fig11_adaptivity_levels(rates, base):
        fr = dict(p.level_fractions)
        rows.append([p.x, p.n_levels, round(fr.get(0, 0.0), 3),
                     round(p.mean_error_rate, 5)])
    print_table(
        "§5.3 adaptivity — lifetime rate vs levels and error",
        ["Lifetime_Rate", "levels", "frac at L0", "mean error"],
        rows,
    )


def live_controller() -> None:
    config = ProtocolConfig(
        id_bits=32,
        probe_interval=5.0,
        probe_timeout=1.0,
        multicast_processing_delay=0.2,
        level_check_interval=10.0,
    )
    net = PeerWindowNetwork(config=config, master_seed=7)
    keys = net.seed_nodes([1e9] * 40, mean_lifetime_s=600.0)
    net.run(until=30.0)
    node = net.node(keys[0])
    trace = [(net.sim.now, node.level, len(node.peer_list))]

    print("\nthrottling node 0 to 50 bps (below its event traffic) ...")
    node.controller.set_threshold(50.0)
    node.threshold_bps = 50.0
    for _ in range(6):
        net.run(until=net.sim.now + 20.0)
        trace.append((net.sim.now, node.level, len(node.peer_list)))

    print("releasing the throttle (threshold back to 1 Gbps) ...")
    node.controller.set_threshold(1e9)
    node.threshold_bps = 1e9
    for _ in range(6):
        net.run(until=net.sim.now + 20.0)
        trace.append((net.sim.now, node.level, len(node.peer_list)))

    print_table(
        "one node's autonomic trajectory",
        ["t (s)", "level", "peer list size"],
        [[round(t, 0), lvl, size] for t, lvl, size in trace],
    )
    print(f"shifts: {node.stats.level_lowers} lower, {node.stats.level_raises} raise")


if __name__ == "__main__":
    sweep()
    live_controller()
