#!/usr/bin/env python
"""The ONSP execution model: one PeerWindow partitioned across LPs.

The paper ran its experiments on ONSP, a *parallel* discrete-event
platform: the overlay is partitioned across MPI ranks and synchronized
conservatively with a lookahead window (ONSP's Myrinet latency).  This
repo reproduces that execution model as a first-class network option:

    PeerWindowNetwork(..., parallel=4)

partitions the nodes by nodeId across 4 logical processes.  Sends whose
destination lives on another LP cross the rank boundary and pay the
lookahead; intra-LP sends stay local.  Adjacent ring neighbours land on
*different* ranks under the modular partition, so the §4.1 probe ring
alone generates steady cross-LP traffic — this is the hard case for
conservative synchronization, not the embarrassingly parallel one.

The correctness property conservative parallel DES must preserve is that
results cannot depend on the partitioning.  This example drives the same
seeded deployment (with churn) sequentially and partitioned, and checks
the two agree bit-for-bit.  That check is what the partitioned engine is
for — in CPython it is an isolation oracle, not a speed-up.

Run:  python examples/onsp_parallel.py
"""

from repro import PeerWindowNetwork, ProtocolConfig
from repro.experiments.report import print_table
from repro.net.latency import PairwiseLatencyModel

CONFIG = ProtocolConfig(
    id_bits=16,
    probe_interval=5.0,
    probe_timeout=1.0,
    multicast_ack_timeout=1.0,
    report_timeout=2.0,
    level_check_interval=1e6,
    multicast_processing_delay=0.1,
)


def run(parallel=None):
    """The same seeded deployment + churn on the requested engine."""
    net = PeerWindowNetwork(
        config=CONFIG,
        master_seed=7,
        topology=PairwiseLatencyModel(),
        parallel=parallel,
    )
    keys = net.seed_nodes([1e6] * 64, forced_level=3)
    net.run(until=30.0)
    for key in keys[:3]:  # churn: three crashes mid-run
        net.crash(key)
    net.run(until=100.0)
    return net


def main() -> None:
    seq = run()
    par = run(parallel=4)

    summary = seq.stats_summary()
    agree = (
        par.stats_summary() == summary
        and par.level_histogram() == seq.level_histogram()
    )

    print_table(
        "the same 64-node deployment on both engines",
        ["mode", "live nodes", "messages", "mean error"],
        [
            [name, int(s["live_nodes"]), int(s["transport_sent"]),
             round(s["mean_error_rate"], 6)]
            for name, s in [
                ("sequential", summary),
                ("parallel=4", par.stats_summary()),
            ]
        ],
    )
    print_table(
        "partitioned execution profile (parallel=4)",
        ["metric", "value"],
        [
            ["lookahead epochs", par.runtime.psim.epochs_run],
            ["cross-LP messages", par.runtime.psim.total_messages()["sent"]],
            ["total protocol messages", int(summary["transport_sent"])],
        ],
    )
    print(f"\nboth engines bit-for-bit identical: {agree}")
    assert agree


if __name__ == "__main__":
    main()
