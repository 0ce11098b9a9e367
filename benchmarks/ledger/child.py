"""One workload, one pass, in a process of its own.

``--trace 0`` is the timed pass: tracing off, end-to-end metrics only,
host times in calibrated seconds (:mod:`benchmarks.ledger.clock`).
``--trace 1`` is the traced pass: the workload is first run with tracing
off (the base of ``trace.overhead_ratio``, the fingerprint tracing must
not change, and the host times the workload measures itself — round-trip
times, contestants alone — which the wrappers would inflate), then again
with the wrappers of :mod:`benchmarks.ledger.tracer` installed, then the
micro rows homed on the workload; per-layer metrics only.

The last line of standard output is one JSON record.  A failed output
check exits 1 and prints no record.
"""

# ruff: noqa: E402  (the clock starts before the other imports)
from __future__ import annotations

from benchmarks.ledger.clock import CalibratedClock

_IMPORTS = CalibratedClock()  # child start: everything after this is set-up

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Tuple

from benchmarks.ledger import spec
from benchmarks.ledger.tracer import HANDLE, Tracer

#: What a pass returns: the checked outcome, metric values, sample counts.
PassResult = Tuple[Any, Dict[str, float], Dict[str, Any]]

#: Builds per timed pass; ``setup_s`` is imports + the median build (the
#: driver's contract: "set up several times in a run and report the median").
SETUP_BUILDS = 3

#: The message kinds whose handler time is reported.
HANDLED_KINDS = ("mcast", "report", "probe", "download", "get-top")


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


# -- the two passes ------------------------------------------------------------


def timed_pass(workload: Any, args: argparse.Namespace) -> PassResult:
    size = workload.size(args.seconds, args.quick)
    builds, state = [], None
    for _ in range(SETUP_BUILDS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        with CalibratedClock() as clock:
            state = workload.build(args.seed, size)
        builds.append(clock.seconds)
    gc.collect()
    with CalibratedClock() as clock:
        raw = workload.run(state)
    outcome = workload.check(state, raw)
    workload.close(state)
    values = {
        "wall_s": clock.seconds,
        "setup_s": _IMPORTS.seconds + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ns_per_event": clock.seconds * 1e9 / outcome.events,
        "accuracy": outcome.accuracy,
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
    }
    samples = {
        "wall_s": 1, "setup_s": SETUP_BUILDS, "peak_rss_mb": 1,
        "ns_per_event": outcome.events, "accuracy": 1, "ok_share": outcome.attempted,
        "probes": len(clock.probes), "raw_wall_s": clock.raw_seconds,
    }
    return outcome, values, samples


def traced_pass(workload: Any, args: argparse.Namespace) -> PassResult:
    from benchmarks.ledger.micro import micro_rows
    from benchmarks.ledger.workloads import CheckFailed, fingerprint

    size = workload.size(args.seconds, args.quick)
    run = workload.run_traced or workload.run  # the same code path both times

    state = workload.build(args.seed, size)
    gc.collect()
    t0 = time.perf_counter()
    raw = run(state)
    base_wall = time.perf_counter() - t0
    base = workload.check(state, raw)
    workload.close(state)
    del state, raw
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.build(args.seed, size)
        setup_agg = tracer.take()
        gc.collect()
        t0 = time.perf_counter()
        raw = run(state)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    outcome = workload.check(state, raw)
    workload.close(state)
    if fingerprint(outcome.stats) != fingerprint(base.stats):
        raise CheckFailed("the traced run ended in a different state than the untraced")
    if args.trace_out:
        tracer.write_chrome(args.trace_out)

    values = layer_values(tracer, setup_agg, traced_wall)
    # Host times the workload measures itself are the untraced run's.
    values.update(base.layer)
    values["trace.overhead_ratio"] = traced_wall / base_wall
    values.update(micro_rows(workload.name, args.quick))
    samples = {"traced_runs": 1, "untraced_runs": 1, "spans_kept": len(tracer.spans)}
    return outcome, values, samples


def layer_values(
    tracer: Tracer, setup_agg: Dict[str, Any], traced_wall: float
) -> Dict[str, float]:
    """Per-layer metrics of the traced run (set-up spans are kept apart,
    so the peer-list writes of seeding do not drown those of the run)."""
    t = tracer
    emits = ("obs.trace.start", "obs.trace.end", "obs.trace.instant",
             "obs.metrics.inc", "obs.metrics.observe", "obs.metrics.set_gauge")
    writes = ("core.peerlist.add", "core.peerlist.remove", "core.peerlist.retarget")

    def setup_s(name: str) -> float:
        # Seeding runs in set-up, except where the workload seeds inside
        # its run (the tournament builds its own populations).
        return setup_agg.get(name, [0, 0, 0])[1] / 1e9 + t.inclusive_s(name)

    values: Dict[str, float] = {
        "sim.engine.events": t.counters.get("sim.engine.events", 0),
        "sim.engine.dispatch_self_s": t.self_s(
            "sim.engine.step", "sim.engine.peek", "sim.engine.schedule_at"),
        "net.transport.sent": t.calls("net.transport.send"),
        "net.transport.send_self_s": t.self_s("net.transport.send", "net.transport.request"),
        "core.multicast.forwards": t.calls("core.multicast.forward"),
        "core.multicast.forward_s": t.inclusive_s("core.multicast.forward"),
        "core.multicast.forward_share":
            t.inclusive_s("core.multicast.forward") / traced_wall,
        "core.peerlist.mcast_candidates_calls": t.calls("core.peerlist.multicast_candidates"),
        "core.peerlist.mcast_candidates_s":
            t.inclusive_s("core.peerlist.multicast_candidates"),
        "core.peerlist.write_calls": t.calls(*writes),
        "core.peerlist.write_s": t.self_s(*writes),
        "core.peerlist.ring_successor_calls": t.calls("core.peerlist.ring_successor"),
        "core.peerlist.ring_successor_s": t.inclusive_s("core.peerlist.ring_successor"),
        "core.seeding.seed_s": setup_s("core.seeding.seed_network"),
        "experiments.scalable.seed_s": setup_s("experiments.scalable.seed_population"),
        "experiments.scalable.broadcast_calls":
            t.calls("experiments.scalable.binomial_broadcast"),
        "experiments.scalable.broadcast_s":
            t.inclusive_s("experiments.scalable.binomial_broadcast"),
        "obs.trace.spans_emitted": t.calls("obs.trace.start"),
        "obs.emit_calls": t.calls(*emits),
        "obs.emit_s": t.self_s(*emits),
        "obs.stream.windows": t.calls("obs.stream.close_window"),
        "obs.stream.close_window_s": t.inclusive_s("obs.stream.close_window"),
        "kernel.codec.encode_calls": t.calls("kernel.codec.encode"),
        "kernel.codec.encode_s": t.inclusive_s("kernel.codec.encode"),
        "kernel.codec.decode_s": t.inclusive_s("kernel.codec.decode"),
        "live.runtime.sent": t.calls("live.runtime.send", "live.runtime.request"),
    }
    for kind in HANDLED_KINDS:
        name = HANDLE + kind
        values[f"core.node.handle_calls.{kind}"] = t.calls(name)
        values[f"core.node.handle_s.{kind}"] = t.inclusive_s(name)
    return values


# -- entry -----------------------------------------------------------------------


def main() -> int:
    from benchmarks.ledger.workloads import CheckFailed, fingerprint, load

    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("--workload", required=True, choices=spec.workload_names())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", default=None)
    try:
        args = parser.parse_args()
        workload = load(args.workload)
    finally:
        _IMPORTS.stop()
    section = "per_layer" if args.trace else "end_to_end"
    declared = spec.metric_table(section)
    try:
        outcome, values, samples = (traced_pass if args.trace else timed_pass)(workload, args)
    except CheckFailed as exc:
        print(f"{args.workload}: output check failed: {exc}", file=sys.stderr)
        return 1
    # A metric the pass does not measure on this workload reads 0 (layer
    # not exercised, or a micro row homed elsewhere); one it measures but
    # BENCHMARK.json does not declare is a bug here.
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    if not args.trace and set(values) != set(declared):
        raise SystemExit(f"end-to-end metrics missing: {sorted(set(declared) - set(values))}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": values.get(name, 0), "unit": entry["unit"]}
            for name, entry in declared.items()
        },
        "samples": samples,
        "fingerprint": fingerprint(outcome.stats),
        "stats": outcome.stats,
        "provenance": provenance(args),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
