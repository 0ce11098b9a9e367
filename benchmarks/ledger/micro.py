"""Micro rows: the layers' public functions called directly.

A micro row belongs to no workload, but each is measured only in the
traced run of the workload(s) on which its layer does the work (its
*home*, see :data:`HOMES`) and reads 0 elsewhere, so that one traced run
does not repeat every micro measurement.  Per-call times are the median
of :data:`REPEATS` timed loops.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from benchmarks.ledger.workloads import CheckFailed
from benchmarks.ledger.workloads.detailed import seeded_network
from benchmarks.ledger.workloads.live import LIVE_KINDS, live_payloads
from repro.core.config import ProtocolConfig
from repro.core.nodeid import NodeId
from repro.core.peerlist import PeerList
from repro.core.pointer import Pointer
from repro.core.protocol import PeerWindowNetwork
from repro.experiments.scalable import binomial_broadcast
from repro.kernel.codec import decode_message, encode_message
from repro.net.latency import PairwiseLatencyModel
from repro.net.message import Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import TelemetryBus
from repro.obs.trace import NodeObs
from repro.sim.queues import CalendarQueue, HeapQueue

REPEATS = 5


def _per_call_ns(
    loop: Callable[[Any], int], prepare: Callable[[], Any] = lambda: None
) -> float:
    """``loop(prepare())`` does its calls and returns how many; only the
    loop is timed.  Median ns per call."""
    samples = []
    for _ in range(REPEATS):
        arg = prepare()
        t0 = time.perf_counter_ns()
        n = loop(arg)
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


# -- core.peerlist / core.nodeid ---------------------------------------------


def peerlist_rows(quick: bool) -> Dict[str, float]:
    """A 2,000-entry level-0 list over 128-bit ids (what a level-0 node of
    ``detailed_ring``'s population would hold)."""
    size = 200 if quick else 2000
    rng = np.random.default_rng(0x706C)
    owner = NodeId.random(rng, 128)
    pointers = [Pointer(NodeId.random(rng, 128), i, i % 6) for i in range(size)]
    subjects = [p.node_id for p in pointers[:32]]

    def empty() -> PeerList:
        return PeerList(owner, 0)

    def filled() -> PeerList:
        pl = empty()
        add(pl)
        return pl

    def add(pl: PeerList) -> int:
        for p in pointers:
            pl.add(p)
        return size

    def remove(pl: PeerList) -> int:
        for p in pointers:
            pl.remove(p.node_id)
        return size

    def candidates(pl: PeerList) -> int:
        for bit, subject in enumerate(subjects):
            pl.multicast_candidates(owner, subject, bit % 16)
        return len(subjects)

    def successor(pl: PeerList) -> int:
        for subject in subjects:
            pl.ring_successor(subject)
        return len(subjects)

    def shares_prefix(_: None) -> int:
        for p in pointers:
            owner.shares_prefix(p.node_id, 64)
        return size

    return {
        "core.peerlist.add_ns": _per_call_ns(add, empty),
        "core.peerlist.remove_ns": _per_call_ns(remove, filled),
        "core.peerlist.mcast_candidates_ns": _per_call_ns(candidates, filled),
        "core.peerlist.ring_successor_ns": _per_call_ns(successor, filled),
        "core.nodeid.shares_prefix_ns": _per_call_ns(shares_prefix),
    }


# -- sim.queues / net.latency -------------------------------------------------


def _hold_ops_per_s(queue_cls: Callable[[], Any], pushes: int) -> float:
    """The classic hold model: keep 10,000 events pending, then pop the
    earliest and push one an exponential delay later, ``pushes`` in all."""
    delays = np.random.default_rng(0x7175).exponential(1.0, size=pushes).tolist()
    pending = min(10_000, pushes)
    samples = []
    for _ in range(REPEATS):
        queue = queue_cls()
        t0 = time.perf_counter()
        for seq in range(pending):
            queue.push(delays[seq], seq, None)
        for seq in range(pending, pushes):
            now = queue.pop()[0]
            queue.push(now + delays[seq], seq, None)
        while len(queue):
            queue.pop()
        samples.append(2 * pushes / (time.perf_counter() - t0))
    return statistics.median(samples)


def queue_rows(quick: bool) -> Dict[str, float]:
    pushes = 20_000 if quick else 200_000
    return {
        "sim.queues.heap_ops_per_s": _hold_ops_per_s(HeapQueue, pushes),
        "sim.queues.calendar_ops_per_s": _hold_ops_per_s(CalendarQueue, pushes),
    }


def latency_rows(quick: bool) -> Dict[str, float]:
    model = PairwiseLatencyModel()
    pairs = 2_000 if quick else 20_000

    def loop(_: None) -> int:
        for i in range(pairs):
            model.pair_latency(i, i + 7)
        return pairs

    return {"net.latency.pair_latency_ns": _per_call_ns(loop)}


# -- sim.parallel --------------------------------------------------------------


def _ring(n: int, sim_s: float, parallel: Any) -> Tuple[float, Dict[str, float]]:
    net = seeded_network(3, n, [3, 4, 4, 5], parallel=parallel)
    t0 = time.perf_counter()
    net.run(until=sim_s)
    return time.perf_counter() - t0, net.stats_summary()


def parallel_rows(quick: bool) -> Dict[str, float]:
    """The barrier cost of two logical processes against the sequential
    engine on a churn-free ring, and that both end in the same state."""
    n, sim_s = (200, 120.0) if quick else (1000, 600.0)
    seq_s, seq_stats = _ring(n, sim_s, None)
    lp2_s, lp2_stats = _ring(n, sim_s, 2)
    if seq_stats != lp2_stats:
        raise CheckFailed("parallel=2 ring ended in a different state than sequential")
    return {"sim.parallel.lp2_wall_ratio": lp2_s / seq_s, "sim.parallel.lp2_equal": 1}


# -- experiments.scalable ------------------------------------------------------


def broadcast_rows(quick: bool) -> Dict[str, float]:
    rng = np.random.default_rng(0x6262)
    ids = np.unique(rng.integers(0, 1 << 40, size=1_000 if quick else 10_000,
                                 dtype=np.uint64))
    levels = np.zeros(ids.size, dtype=np.int32)

    def loop(_: None) -> int:
        depths, _ = binomial_broadcast(ids, levels, 0, 40)
        if (depths < 0).any():
            raise CheckFailed("binomial_broadcast left audience members unreached")
        return 1

    return {"experiments.scalable.broadcast_10k_ms": _per_call_ns(loop) / 1e6}


# -- obs -------------------------------------------------------------------------


def _obs_run(observability: bool, sim_s: float) -> Tuple[float, Dict[str, float]]:
    """60 nodes, three leaves then three joins; with observability on, a
    telemetry bus is tapped in too (every emit path is live)."""
    t0 = time.perf_counter()
    net = PeerWindowNetwork(
        config=ProtocolConfig(id_bits=16),
        topology=PairwiseLatencyModel(),
        master_seed=7,
        observability=observability,
    )
    if observability:
        net.obs.attach_bus(TelemetryBus())
    keys = net.seed_nodes([4000.0] * 60)
    for key in keys[1:4]:
        net.leave(key)
    net.run(until=sim_s / 2)
    for _ in range(3):
        net.add_node(4000.0, keys[0])
    net.run(until=sim_s)
    return time.perf_counter() - t0, net.stats_summary()


def obs_rows(quick: bool) -> Dict[str, float]:
    calls = 2_000 if quick else 20_000
    off_reg, off_obs = MetricsRegistry(enabled=False), NodeObs("n0", enabled=False)
    on_reg, on_obs = MetricsRegistry(enabled=True), NodeObs("n0", enabled=True)

    def disabled(_: None) -> int:
        for _ in range(calls):
            off_reg.inc("mcast.received")
            off_reg.observe("probe.rtt", 0.1)
            if off_obs.enabled:  # the span-site idiom: guard, never start
                off_obs.start("probe", 0.0)
        return 3 * calls

    def enabled(_: None) -> int:
        for _ in range(calls):
            on_reg.inc("mcast.received")
            on_obs.instant("probe", 0.0)
        on_obs.spans.clear()
        return 2 * calls

    sim_s = 60.0 if quick else 120.0
    off_s, off_stats = _obs_run(False, sim_s)
    on_s, on_stats = _obs_run(True, sim_s)
    if off_stats != on_stats:
        raise CheckFailed("observability + bus changed the run's stats_summary()")
    return {
        "obs.disabled_guard_ns": _per_call_ns(disabled),
        "obs.enabled_emit_ns": _per_call_ns(enabled),
        "obs.run_overhead_ratio": on_s / off_s,
    }


# -- kernel.codec ----------------------------------------------------------------


def codec_rows(quick: bool) -> Dict[str, float]:
    """Smallest (probe), typical (mcast) and largest (64-pointer
    download-data) datagrams, ids 128 bits wide."""
    payloads = live_payloads(0)
    calls = 200 if quick else 2_000
    bits = {kind: b for request, reply, rb, pb in LIVE_KINDS
            for kind, b in ((request, rb), (reply, pb))}
    rows: Dict[str, float] = {}
    for kind in ("probe", "mcast", "download-data"):
        msg = Message("127.0.0.1:40001", "127.0.0.1:40002", kind, payloads[kind][0],
                      size_bits=bits[kind], msg_id=123_456)
        data = encode_message(msg)
        if decode_message(data) != msg:
            raise CheckFailed(f"codec round trip changed a {kind} message")

        def encode(_: None, msg: Message = msg) -> int:
            for _ in range(calls):
                encode_message(msg)
            return calls

        def decode(_: None, data: bytes = data) -> int:
            for _ in range(calls):
                decode_message(data)
            return calls

        rows[f"kernel.codec.encode_ns.{kind}"] = _per_call_ns(encode)
        rows[f"kernel.codec.decode_ns.{kind}"] = _per_call_ns(decode)
        rows[f"kernel.codec.datagram_bytes.{kind}"] = len(data)
    return rows


#: workload -> the micro groups measured in its traced run.
HOMES: Dict[str, List[Callable[[bool], Dict[str, float]]]] = {
    "detailed_churn": [peerlist_rows],
    "detailed_ring": [peerlist_rows, queue_rows, latency_rows, parallel_rows],
    "scalable_paper": [broadcast_rows],
    "tournament": [obs_rows],
    "live_loopback": [codec_rows],
}


def micro_rows(workload: str, quick: bool) -> Dict[str, float]:
    rows: Dict[str, float] = {}
    for group in HOMES[workload]:
        rows.update(group(quick))
    return rows
