"""Localhost swarm: launch N node processes, merge exports, judge both
backends with one HealthSpec.

The launcher (:func:`launch_swarm`) spawns one ``repro live node``
process per node — seed first by port convention, every process handed
the same ``(master_seed, epoch, duration)`` — then waits for all of them
and merges their per-process exports:

* **spans** — concatenated in sorted node order and stably sorted by
  start time, the exact merge :meth:`repro.obs.trace.Observability.spans`
  performs in-process, so cross-process parent references resolve and
  ``validate_span_lines`` passes on the merged file;
* **metrics** — per-node registry snapshots folded with
  :func:`repro.obs.metrics.aggregate_snapshots`, then the summed
  runtime counters injected per message kind, mirroring
  :meth:`repro.core.protocol.PeerWindowNetwork.metrics_snapshot`.

:func:`run_sim_counterpart` replays the same workload shape — one
bootstrap plus staggered joins of the same (n, config) under the same
master seed — on the sequential simulator, and :func:`fidelity_rows`
lines the two signal sets up side by side: the sim-vs-real fidelity
report that "On the Cost of Participating in a Peer-to-Peer Network"
frames as the credibility test for P2P cost models.

The live metrics meta deliberately omits ``mean_error_rate``: it is an
oracle quantity (global knowledge of who is really alive) that only a
simulator has, and :func:`repro.obs.health.evaluate` skips SLOs whose
signal is absent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.live.clock import wall_epoch
from repro.live.node import LiveNodeSpec, live_config
from repro.live.runtime import format_address
from repro.obs import metrics as m
from repro.obs.export import (
    prepare_output_path,
    span_header_line,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.metrics import aggregate_snapshots

#: Seconds of wall time granted for interpreter startup before the
#: epoch's t=0 — python + numpy imports for every process serialize on
#: small CI machines (~3-4 s each on one CPU), and every process should
#: be listening before the first join fires.  Nodes additionally shift
#: their own schedules by any lateness they observe at bind time, so an
#: underestimate here degrades the shared timeline instead of the run.
STARTUP_GRACE_PER_NODE = 4.0
STARTUP_GRACE_MIN = 5.0


def swarm_specs(
    n: int,
    base_port: int,
    master_seed: int,
    epoch: float,
    duration: float,
    host: str = "127.0.0.1",
    stagger: float = 0.4,
    settle: float = 4.0,
    request_retries: int = 1,
    telemetry_window: float = 0.0,
) -> List[LiveNodeSpec]:
    """Per-process specs: index 0 is the seed at ``base_port``; joiner
    ``i`` joins at ``stagger * i`` seconds after the epoch."""
    if n < 1:
        raise ValueError("swarm needs at least one node")
    seed_address = format_address(host, base_port)
    specs = []
    for i in range(n):
        specs.append(
            LiveNodeSpec(
                host=host,
                port=base_port + i,
                index=i,
                n_nodes=n,
                master_seed=master_seed,
                epoch=epoch,
                duration=duration,
                seed_address=None if i == 0 else seed_address,
                join_at=stagger * i,
                settle=settle,
                request_retries=request_retries,
                telemetry_window=telemetry_window,
            )
        )
    return specs


def _node_argv(spec: LiveNodeSpec, outdir: str) -> List[str]:
    argv = [
        sys.executable, "-m", "repro", "live", "node",
        "--host", spec.host,
        "--port", str(spec.port),
        "--index", str(spec.index),
        "--swarm-size", str(spec.n_nodes),
        "--seed", str(spec.master_seed),
        "--epoch", repr(spec.epoch),
        "--duration", str(spec.duration),
        "--join-at", str(spec.join_at),
        "--settle", str(spec.settle),
        "--request-retries", str(spec.request_retries),
        "--out", outdir,
    ]
    if spec.telemetry_window > 0:
        argv += ["--telemetry-window", str(spec.telemetry_window)]
    if spec.seed_address is not None:
        argv += ["--via", spec.seed_address]
    return argv


def launch_swarm(
    n: int,
    duration: float,
    outdir: str,
    base_port: int = 47000,
    master_seed: int = 0,
    host: str = "127.0.0.1",
    stagger: float = 0.4,
    settle: float = 4.0,
    request_retries: int = 1,
    epoch: Optional[float] = None,
    telemetry_window: float = 0.0,
    watch: bool = False,
) -> Dict[str, Any]:
    """Run an ``n``-process swarm and merge its exports into
    ``<outdir>/spans.jsonl`` + ``<outdir>/metrics.json`` (plus
    ``<outdir>/telemetry.jsonl`` when ``telemetry_window > 0``).

    With ``watch`` the wait loop also tails the per-node telemetry
    sidecars and renders the latest merged frame while the swarm runs.

    Returns a summary dict (per-process exit codes, join outcomes, and
    the merged artifact paths).  Raises :class:`RuntimeError` when a
    process dies or fails to export — a partial merge would quietly
    understate non-delivery, so it is refused.
    """
    if watch and telemetry_window <= 0:
        raise ValueError("watch needs telemetry_window > 0")
    if epoch is None:
        epoch = wall_epoch() + max(STARTUP_GRACE_MIN, STARTUP_GRACE_PER_NODE * n)
    specs = swarm_specs(
        n, base_port, master_seed, epoch, duration,
        host=host, stagger=stagger, settle=settle,
        request_retries=request_retries,
        telemetry_window=telemetry_window,
    )
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    procs = [
        subprocess.Popen(
            _node_argv(spec, outdir),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        for spec in specs
    ]
    # Everything is epoch-scheduled; the longest-lived process exits
    # shortly after epoch + duration, plus up to one more startup grace
    # if slow interpreter startup forced nodes to shift their schedules.
    grace = max(STARTUP_GRACE_MIN, STARTUP_GRACE_PER_NODE * n)
    budget = (epoch - wall_epoch()) + duration + grace + max(60.0, duration)
    if watch:
        _watch_swarm(procs, specs, outdir, deadline=wall_epoch() + budget)
    failures: List[str] = []
    for spec, proc in zip(specs, procs):
        try:
            _, err = proc.communicate(timeout=max(budget, 10.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            failures.append(f"node {spec.address}: timed out")
            continue
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            failures.append(
                f"node {spec.address}: exit {proc.returncode}: " + " | ".join(tail)
            )
    if failures:
        raise RuntimeError("swarm processes failed:\n  " + "\n  ".join(failures))
    results = [_load_result(outdir, spec) for spec in specs]
    spans_path = merge_spans(outdir, specs)
    metrics_path = merge_metrics(
        outdir, results, live_config(), n, master_seed, duration
    )
    telemetry_path = None
    if telemetry_window > 0:
        telemetry_path = merge_telemetry(outdir, specs)
    return {
        "n": n,
        "joined": sum(1 for r in results if r.get("joined")),
        "spans": spans_path,
        "metrics": metrics_path,
        "telemetry": telemetry_path,
        "runtime": runtime_totals(results),
        "results": results,
    }


def _settled_frames(
    outdir: str, specs: Sequence[LiveNodeSpec]
) -> List[Dict[str, Any]]:
    """Merge whatever telemetry the sidecars have flushed so far,
    keeping only windows every node has already closed — a window some
    process has not flushed yet would render once incomplete and then
    never be repainted with the full picture."""
    from repro.obs.stream import load_frames_file, merge_node_frames

    per_node: List[Tuple[str, List[Dict[str, Any]]]] = []
    highest: List[int] = []
    for spec in specs:
        path = os.path.join(outdir, f"telemetry_{spec.port}.jsonl")
        try:
            frames, _, _ = load_frames_file(path)
        except OSError:
            return []
        if not frames:
            return []
        per_node.append((spec.address, frames))
        highest.append(max(int(f["window"]) for f in frames))
    settled = min(highest)
    merged = merge_node_frames(per_node)
    return [
        f for f in merged
        if not f.get("final") and int(f["window"]) <= settled
    ]


def _watch_swarm(
    procs: Sequence[subprocess.Popen],
    specs: Sequence[LiveNodeSpec],
    outdir: str,
    deadline: float,
    interval: float = 1.0,
) -> None:
    """Tail the per-node telemetry sidecars while the swarm runs and
    render each newly settled merged window.  Purely observational: exit
    codes, timeouts, and the authoritative merge still happen in
    :func:`launch_swarm` after every process has exited."""
    from repro.obs.dashboard import TerminalDashboard

    dashboard = TerminalDashboard()
    rendered = -1
    while any(proc.poll() is None for proc in procs):
        if wall_epoch() >= deadline:
            break
        time.sleep(interval)
        for frame in _settled_frames(outdir, specs):
            if int(frame["window"]) > rendered:
                dashboard.render(frame)
                rendered = int(frame["window"])


def merge_telemetry(outdir: str, specs: Sequence[LiveNodeSpec]) -> str:
    """Merge per-process telemetry sidecars into
    ``<outdir>/telemetry.jsonl`` with the same ordering rules as the
    span merge (sorted address order within each window index), plus a
    cumulative final frame.  Tolerant of truncated per-node tails — a
    node killed mid-flush loses at most its partial last line."""
    from repro.obs.stream import (
        frame_line,
        load_frames_file,
        merge_node_frames,
        telemetry_header_line,
    )

    per_node: List[Tuple[str, List[Dict[str, Any]]]] = []
    for spec in specs:
        frames, _, _ = load_frames_file(
            os.path.join(outdir, f"telemetry_{spec.port}.jsonl")
        )
        per_node.append((spec.address, frames))
    merged = merge_node_frames(per_node)
    out_path = os.path.join(outdir, "telemetry.jsonl")
    prepare_output_path(out_path, "merged telemetry JSONL")
    with open(out_path, "w") as fh:
        fh.write(telemetry_header_line() + "\n")
        for frame in merged:
            fh.write(frame_line(frame) + "\n")
    return out_path


def _load_result(outdir: str, spec: LiveNodeSpec) -> Dict[str, Any]:
    path = os.path.join(outdir, f"node_{spec.port}.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise RuntimeError(f"node {spec.address} left no result ({exc})") from exc


def merge_spans(outdir: str, specs: Sequence[LiveNodeSpec]) -> str:
    """Merge per-process span exports into ``<outdir>/spans.jsonl`` with
    the deterministic ordering of
    :meth:`repro.obs.trace.Observability.spans`: files concatenated in
    sorted node order (each file already in creation order), then a
    stable sort by start time."""
    per_node: List[Tuple[str, List[Dict[str, Any]]]] = []
    for spec in specs:
        path = os.path.join(outdir, f"spans_{spec.port}.jsonl")
        spans: List[Dict[str, Any]] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if "span_id" in obj:
                    spans.append(obj)
        per_node.append((spec.address, spans))
    per_node.sort(key=lambda pair: str(pair[0]))
    merged: List[Dict[str, Any]] = []
    for _, spans in per_node:
        merged.extend(spans)
    merged.sort(key=lambda s: s["start"])  # stable: preserves node order
    out_path = os.path.join(outdir, "spans.jsonl")
    prepare_output_path(out_path, "merged span JSONL")
    with open(out_path, "w") as fh:
        fh.write(span_header_line() + "\n")
        for obj in merged:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return out_path


#: ``RealtimeRuntime.stats()`` counter -> the swarm-wide metric it sums
#: into.  The last two are what a codec or version mismatch looks like
#: from outside: datagrams that left one node and reached no handler.
RUNTIME_COUNTERS = {
    "retransmit_giveups": m.LIVE_RETRANSMIT_GIVEUP,
    "malformed": m.LIVE_MALFORMED,
    "socket_errors": m.LIVE_SOCKET_ERRORS,
}


def runtime_totals(results: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Each :data:`RUNTIME_COUNTERS` counter summed over the swarm."""
    return {
        stat: sum(int(r["transport"].get(stat, 0)) for r in results)
        for stat in RUNTIME_COUNTERS
    }


def merge_metrics(
    outdir: str,
    results: Sequence[Dict[str, Any]],
    config: ProtocolConfig,
    n: int,
    master_seed: int,
    duration: float,
) -> str:
    """Fold per-node registry snapshots and runtime counters into
    ``<outdir>/metrics.json`` with the same structure (and meta block,
    minus the oracle-only ``mean_error_rate``) as a simulator export."""
    ordered = sorted(results, key=lambda r: str(r["address"]))
    snapshot = aggregate_snapshots(r["registry"] for r in ordered)
    by_kind: Dict[str, int] = {}
    bits_by_kind: Dict[str, int] = {}
    for result in ordered:
        stats = result["transport"]
        for kind, count in stats.get("by_kind", {}).items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        for kind, bits in stats.get("bytes_by_kind", {}).items():
            bits_by_kind[kind] = bits_by_kind.get(kind, 0) + bits
    counters = snapshot["counters"]
    for stat, total in runtime_totals(ordered).items():
        counters[RUNTIME_COUNTERS[stat]] = total
    for kind in sorted(by_kind):
        counters[f"{m.TRANSPORT_MSGS}.{kind}"] = by_kind[kind]
    for kind in sorted(bits_by_kind):
        counters[f"{m.TRANSPORT_BITS}.{kind}"] = bits_by_kind[kind]
    meta = {
        "n_nodes": n,
        "seed": master_seed,
        "duration": duration,
        "backend": "live",
        "config": config.describe(),
    }
    out_path = os.path.join(outdir, "metrics.json")
    write_metrics_json(out_path, snapshot, meta=meta)
    return out_path


# -- the sim side of the fidelity comparison --------------------------------


def run_sim_counterpart(
    n: int,
    duration: float,
    outdir: str,
    master_seed: int = 0,
    stagger: float = 0.4,
    config: Optional[ProtocolConfig] = None,
    threshold_bps: float = 4000.0,
) -> Dict[str, Any]:
    """The same (n, config) workload on the sequential simulator: one
    bootstrap node, then staggered protocol joins, run to ``duration``.
    Exports ``<outdir>/spans.jsonl`` + ``<outdir>/metrics.json``."""
    from repro.core.protocol import PeerWindowNetwork
    from repro.net.latency import PairwiseLatencyModel

    if config is None:
        config = live_config()
    net = PeerWindowNetwork(
        config=config,
        topology=PairwiseLatencyModel(),
        master_seed=master_seed,
        observability=True,
    )
    bootstrap = net.add_first_node(threshold_bps)
    for i in range(1, n):
        net.sim.schedule(stagger * i, net.add_node, threshold_bps, bootstrap)
    net.run(until=duration)
    os.makedirs(outdir, exist_ok=True)
    spans_path = write_spans_jsonl(os.path.join(outdir, "spans.jsonl"), net.spans())
    meta = {
        "n_nodes": n,
        "seed": master_seed,
        "duration": duration,
        "backend": "sim",
        "mean_error_rate": net.mean_error_rate(),
        "config": config.describe(),
    }
    metrics_path = write_metrics_json(
        os.path.join(outdir, "metrics.json"), net.metrics_snapshot(), meta=meta
    )
    return {"n": n, "spans": spans_path, "metrics": metrics_path}


def fidelity_rows(
    sim_signals: Dict[str, float], live_signals: Dict[str, float]
) -> List[List[Any]]:
    """Side-by-side signal table for the sim-vs-real fidelity report.
    Signals present on only one side render with a ``-`` placeholder
    (e.g. the sim-only peer-list accuracy oracle)."""
    rows: List[List[Any]] = []
    for name in sorted(set(sim_signals) | set(live_signals)):
        sim_v = sim_signals.get(name)
        live_v = live_signals.get(name)
        rows.append(
            [
                name,
                "-" if sim_v is None else round(sim_v, 6),
                "-" if live_v is None else round(live_v, 6),
            ]
        )
    return rows
