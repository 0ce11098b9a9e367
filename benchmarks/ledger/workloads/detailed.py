"""``detailed_churn`` and ``detailed_ring``: the detailed engine, paper-
default ``ProtocolConfig()`` (128-bit ids) with the level controller
parked, ``PairwiseLatencyModel``, levels pinned at seeding.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import asdict
from typing import Any, Dict, List, Optional

import numpy as np

from benchmarks.ledger.workloads import CheckFailed, Outcome, Workload
from repro.core.config import ProtocolConfig
from repro.core.protocol import PeerWindowNetwork
from repro.net.latency import PairwiseLatencyModel

_THRESHOLD_BPS = 1e9


def oracle_error(net: PeerWindowNetwork) -> float:
    """``net.mean_error_rate()`` in O(n log n + total list length).

    The oracle list of a node is every live id sharing its first
    ``level`` bits — a contiguous range of the sorted live ids — so the
    common all-correct case is one list comparison per node instead of
    n ``shares_prefix`` calls (4M for the 2,000-node ring).
    """
    live = net.live_nodes()
    ids = sorted(node.node_id.value for node in live)
    total = 0.0
    for node in live:
        shift = node.node_id.bits - node.level
        lo = (node.node_id.value >> shift) << shift
        correct = ids[bisect_left(ids, lo):bisect_left(ids, lo + (1 << shift))]
        actual = node.peer_list.ids()
        if actual != correct:
            wrong = set(actual) ^ set(correct)
            total += len(wrong) / len(correct)
    return total / len(live) if live else 0.0


def seeded_network(
    seed: int, n: int, levels: List[int], parallel: Optional[int] = None
) -> PeerWindowNetwork:
    """``n`` nodes seeded at pinned levels cycling through ``levels``, the
    level controller parked (at this scale it would storm)."""
    net = PeerWindowNetwork(
        config=ProtocolConfig(level_check_interval=1e6),
        topology=PairwiseLatencyModel(),
        master_seed=seed,
        parallel=parallel,
    )
    net.seed_nodes(
        [
            {"threshold_bps": _THRESHOLD_BPS, "level": levels[i % len(levels)]}
            for i in range(n)
        ]
    )
    return net


def _detailed_build(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    net = seeded_network(seed, size["n"], size["levels"])
    return {"net": net, "seed": seed, "size": size}


def _detailed_stats(net: PeerWindowNetwork) -> Dict[str, Any]:
    """The deterministic summary of a detailed run (``stats_summary()``
    minus its O(n^2) error scan, plus a digest of every peer list)."""
    live = net.live_nodes()
    node_stats: Dict[str, int] = {}
    for node in live:
        for key, value in asdict(node.stats).items():
            node_stats[key] = node_stats.get(key, 0) + value
    digest = hashlib.sha256()
    for node in sorted(live, key=lambda nd: nd.node_id.value):
        digest.update(repr((node.node_id.value, node.level, node.peer_list.ids())).encode())
    transport = net.transport.stats()
    bits = sum(transport["bytes_by_kind"].values())  # size_bits despite the name
    return {
        "sim_seconds": net.now,
        "events": net.sim.events_executed,
        "live_nodes": len(live),
        "levels": {str(k): v for k, v in net.level_histogram().items()},
        "node_stats": node_stats,
        "transport": transport,
        "bits_sent": bits,
        "bandwidth_bps_per_node": bits / len(live) / net.now,
        "peer_lists_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# detailed_churn
# ---------------------------------------------------------------------------


def _churn_size(seconds: float, quick: bool) -> Dict[str, Any]:
    if quick:
        return {"n": 40, "levels": [0, 0, 1, 2], "lead_in_s": 30.0, "cycles": 3,
                "cycle_s": 12.0, "settle_s": 60.0}
    # ~1.2 host-s per cycle at n=200; lead-in and settle are nearly free.
    return {"n": 200, "levels": [0, 0, 1, 2], "lead_in_s": 30.0,
            "cycles": max(3, round(0.8 * seconds)), "cycle_s": 12.0, "settle_s": 60.0}


def _churn_run(state: Dict[str, Any]) -> Dict[str, Any]:
    net: PeerWindowNetwork = state["net"]
    size = state["size"]
    rng = np.random.default_rng([0x6C6564, state["seed"]])
    net.run(until=size["lead_in_s"])
    joins: List[List[bool]] = []
    crashed, left, errors = [], 0, []
    for i in range(size["cycles"]):
        live = [k for k, node in net.nodes.items() if node.alive]
        victim = live[int(rng.integers(len(live)))]
        if i % 3 == 0:
            crashed.append(net.crash(victim).node_id.value)
        elif i % 3 == 1:
            net.leave(victim)
            left += 1
        bootstrap = next(k for k, node in net.nodes.items() if node.alive)
        done: List[bool] = []
        joins.append(done)
        net.add_node(_THRESHOLD_BPS, bootstrap=bootstrap, on_done=done.append)
        net.run(until=net.now + size["cycle_s"])
        errors.append(oracle_error(net))
    net.run(until=net.now + size["settle_s"])
    return {"joins": joins, "crashed": crashed, "left": left, "errors": errors}


def _churn_check(state: Dict[str, Any], raw: Dict[str, Any]) -> Outcome:
    net: PeerWindowNetwork = state["net"]
    size = state["size"]
    failed_joins = sum(1 for done in raw["joins"] if done != [True])
    known = set()
    for node in net.live_nodes():
        known.update(node.peer_list.ids())
    undetected = sum(1 for value in raw["crashed"] if value in known)
    expected = size["n"] + size["cycles"] - len(raw["crashed"]) - raw["left"]
    live = len(net.live_nodes())
    if abs(live - expected) > 1:
        raise CheckFailed(f"churn ended with {live} live nodes, expected {expected} +- 1")
    final_error = oracle_error(net)
    if final_error != 0.0 or undetected:
        raise CheckFailed(
            f"churn did not settle: oracle error {final_error}, "
            f"{undetected} crash(es) undetected"
        )
    stats = _detailed_stats(net)
    stats.update(
        joins_ok=len(raw["joins"]) - failed_joins, joins_failed=failed_joins,
        crashes=len(raw["crashed"]), leaves=raw["left"],
        error_samples=raw["errors"], error_rate=float(np.mean(raw["errors"])),
    )
    return Outcome(
        stats=stats,
        attempted=len(raw["joins"]) + len(raw["crashed"]) + raw["left"],
        failed=failed_joins + undetected,
        events=stats["events"],
        accuracy=1.0 - stats["error_rate"],
    )


# ---------------------------------------------------------------------------
# detailed_ring
# ---------------------------------------------------------------------------


def _ring_size(seconds: float, quick: bool) -> Dict[str, Any]:
    if quick:
        return {"n": 200, "levels": [3, 4, 4, 5], "sim_s": 120.0}
    # ~36 us/event, 195 events per simulated second at n=2000.
    return {"n": 2000, "levels": [3, 4, 4, 5], "sim_s": 140.0 * seconds}


def _ring_run(state: Dict[str, Any]) -> None:
    state["net"].run(until=state["size"]["sim_s"])


def _ring_check(state: Dict[str, Any], _raw: None) -> Outcome:
    net: PeerWindowNetwork = state["net"]
    stats = _detailed_stats(net)
    counters = stats["node_stats"]
    failed = counters["failures_detected"] + counters["reports_failed"]
    if failed:
        raise CheckFailed(f"churn-free ring reported {failed} failure detection(s)")
    stats["error_rate"] = oracle_error(net)
    return Outcome(
        stats=stats,
        attempted=counters["probes_sent"],
        failed=failed,
        events=stats["events"],
        accuracy=1.0 - stats["error_rate"],
    )


WORKLOADS = {
    "detailed_churn": Workload(
        "detailed_churn", _churn_size, _detailed_build, _churn_run, _churn_check),
    "detailed_ring": Workload(
        "detailed_ring", _ring_size, _detailed_build, _ring_run, _ring_check),
}
