"""One live PeerWindow node in one OS process.

:func:`run_node` is the per-process harness behind ``repro live
seed|node``: bind a UDP socket, construct an unmodified
:class:`~repro.core.node.PeerWindowNode` on a
:class:`~repro.live.runtime.RealtimeRuntime`, bootstrap (seed) or join
through a bootstrap address, run until an epoch-relative deadline, then
quiesce and export the same schema-versioned span/metrics artifacts the
simulator exports.

Reproducibility discipline carries over wherever physics allows: node
ids and protocol randomness derive from ``(master_seed, index)`` via
:class:`~repro.sim.rng.RandomStreams`, and all timestamps come from the
shared-epoch :class:`~repro.live.clock.RealtimeClock`, so two swarm runs
differ only by real scheduling/latency — which is exactly the residue
the sim-vs-real fidelity report is meant to measure.

The default :func:`live_config` rescales the paper's timers (30 s probes,
60 s level checks) to localhost seconds so a sub-minute swarm exercises
every service; the sim counterpart of a fidelity comparison runs the
*same* config, keeping (n, config) identical across backends.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.config import ProtocolConfig
from repro.core.node import PeerWindowNode
from repro.core.nodeid import NodeId
from repro.live.runtime import RealtimeRuntime, format_address
from repro.obs import metrics as m
from repro.obs.export import prepare_output_path, write_spans_jsonl
from repro.obs.trace import NodeObs
from repro.sim.rng import RandomStreams

#: Version of the per-process result document (``node_<port>.json``).
NODE_RESULT_SCHEMA_VERSION = 1


def live_config(**overrides: Any) -> ProtocolConfig:
    """The paper's config with timers rescaled for a localhost swarm.

    Ratios are preserved (probe timeout < probe interval, report timeout
    > ack timeout) while absolute values shrink so that probes, level
    checks, multicasts, and acks all fire many times within a ~30 s run.
    The multicast processing delay — the paper's 1 s store-and-forward
    pause at medium nodes — shrinks to 50 ms so trees complete quickly.
    """
    base = dict(
        id_bits=32,
        probe_interval=3.0,
        probe_timeout=1.5,
        multicast_processing_delay=0.05,
        multicast_ack_timeout=2.0,
        level_check_interval=5.0,
        report_timeout=3.0,
        download_grace=5.0,
        join_retry_attempts=3,
        join_retry_backoff=1.5,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


@dataclass
class LiveNodeSpec:
    """Everything one node process needs to know, CLI-serializable."""

    host: str
    port: int
    index: int
    n_nodes: int
    master_seed: int
    epoch: float
    duration: float
    seed_address: Optional[str] = None  # None -> this is the seed node
    join_at: float = 0.0
    settle: float = 4.0
    threshold_bps: float = 4000.0
    request_retries: int = 1
    #: Width (epoch seconds) of the telemetry frame windows written to
    #: the ``telemetry_<port>.jsonl`` sidecar; 0 disables the sidecar.
    telemetry_window: float = 0.0

    @property
    def address(self) -> str:
        return format_address(self.host, self.port)


def node_id_for(spec: LiveNodeSpec, config: ProtocolConfig) -> NodeId:
    """Deterministic per-index node id: every process can derive its own
    without a coordinator, and ``(master_seed, index)`` pins it."""
    streams = RandomStreams(spec.master_seed)
    return NodeId.random(streams.spawn("live-nodeids", spec.index), config.id_bits)


def node_result(
    spec: LiveNodeSpec,
    node: PeerWindowNode,
    obs: NodeObs,
    runtime: RealtimeRuntime,
    joined: Optional[bool],
) -> Dict[str, Any]:
    """The per-process result document the swarm merger consumes:
    this node's metrics-registry snapshot (gauges refreshed the same way
    :meth:`~repro.core.protocol.PeerWindowNetwork.metrics_snapshot`
    refreshes them) plus the runtime's transport-style counters."""
    reg = obs.registry
    reg.gauges = {
        k: v
        for k, v in reg.gauges.items()
        if not k.startswith((m.PEERS_SIZE_LEVEL + ".", m.NODES_LEVEL + "."))
    }
    if node.ctx.alive:
        reg.set_gauge(f"{m.PEERS_SIZE_LEVEL}.{node.level}", len(node.peer_list))
        reg.set_gauge(f"{m.NODES_LEVEL}.{node.level}", 1)
    return {
        "schema": "repro.live.node",
        "schema_version": NODE_RESULT_SCHEMA_VERSION,
        "address": spec.address,
        "index": spec.index,
        "joined": joined,
        "level": node.level if node.ctx.alive else None,
        "registry": reg.snapshot(),
        "transport": runtime.stats(),
    }


async def run_node(spec: LiveNodeSpec, outdir: str) -> Dict[str, Any]:
    """Run one node for the spec's epoch-relative schedule and export
    ``spans_<port>.jsonl`` + ``node_<port>.json`` into ``outdir``.

    Timeline (seconds since the shared epoch): wait until ``join_at``;
    bootstrap or join; run the services; at ``duration - settle`` stop
    originating (cancel the periodic loops); let in-flight trees and
    acks drain through the settle window; export and close.
    """
    config = live_config()
    runtime = await RealtimeRuntime.create(
        host=spec.host,
        port=spec.port,
        epoch=spec.epoch,
        request_retries=spec.request_retries,
    )
    address = runtime.address
    obs = NodeObs(address, enabled=True)
    streams = RandomStreams(spec.master_seed)
    node = PeerWindowNode(
        runtime=runtime,
        config=config,
        node_id=node_id_for(spec, config),
        address=address,
        threshold_bps=spec.threshold_bps,
        rng=streams.spawn("node", spec.index),
        obs=obs,
    )
    joined: Optional[bool] = None
    # Interpreter startup can overrun the launcher's pre-epoch grace on a
    # loaded machine (N processes importing numpy serialize on one CPU).
    # Shift this process's whole schedule by its observed lateness so a
    # slow start translates the timeline instead of truncating it — the
    # seed must still be listening when the last joiner's retries land.
    late = max(0.0, runtime.now)
    telemetry_task: Optional[asyncio.Task] = None
    telemetry_writer = None
    if spec.telemetry_window > 0:
        telemetry_task, telemetry_writer = _start_telemetry_sidecar(
            spec, outdir, obs, runtime
        )
    try:
        await asyncio.sleep(max(0.0, late + spec.join_at - runtime.now))
        if spec.seed_address is None:
            node.bootstrap_first(level=0)
            joined = True
        else:
            done = asyncio.get_running_loop().create_future()
            node.join_via(spec.seed_address, on_done=lambda ok: done.set_result(ok))
            joined = await done
        quiesce_at = late + spec.duration - spec.settle
        await asyncio.sleep(max(0.0, quiesce_at - runtime.now))
        if node.ctx.alive:
            node._stop_loops()
        await asyncio.sleep(max(0.0, late + spec.duration - runtime.now))
    finally:
        if telemetry_task is not None:
            telemetry_task.cancel()
            try:
                await telemetry_task
            except asyncio.CancelledError:
                pass
            telemetry_writer.close()
        result = node_result(spec, node, obs, runtime, joined)
        spans_path = f"{outdir}/spans_{spec.port}.jsonl"
        result_path = f"{outdir}/node_{spec.port}.json"
        write_spans_jsonl(spans_path, obs.spans)
        prepare_output_path(result_path, "live node result")
        with open(result_path, "w") as fh:
            json.dump(result, fh, sort_keys=True, indent=2)
            fh.write("\n")
        await runtime.close()
    return result


def _start_telemetry_sidecar(spec: LiveNodeSpec, outdir: str,
                             obs: NodeObs, runtime: RealtimeRuntime):
    """Tap this node's emit paths and write one telemetry frame per
    ``spec.telemetry_window`` epoch seconds to
    ``<outdir>/telemetry_<port>.jsonl``, flushed per frame so the swarm
    watcher can tail it.  Windows sit on the *shared* epoch grid (no
    lateness shift) so frames from every process merge by window index.
    """
    from repro.obs.stream import (
        NodeTap,
        SnapshotWriter,
        WindowAggregator,
        WindowBucket,
    )

    tap = NodeTap(obs)
    obs.sink = tap
    obs.registry.sink = tap
    writer = SnapshotWriter(f"{outdir}/telemetry_{spec.port}.jsonl")
    agg = WindowAggregator(spec=None)
    window = float(spec.telemetry_window)

    async def loop() -> None:
        index = max(0, int(runtime.now // window))
        while True:
            target = (index + 1) * window
            await asyncio.sleep(max(0.05, target - runtime.now))
            bucket = WindowBucket()
            bucket.add_node(*tap.drain())
            writer.write(agg.close_window(index, index * window, target, bucket))
            index += 1

    return asyncio.get_running_loop().create_task(loop()), writer
