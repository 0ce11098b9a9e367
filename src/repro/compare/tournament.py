"""The tournament driver: identical workloads, lockstep windows, one doc.

Every contestant in a seed advances through the *same* time marks — the
union of churn-op times and window boundaries — so their telemetry
windows line up exactly and a ``--watch`` callback can render them side
by side after every closed window.  Rows are measured per (contestant,
seed); cross-seed aggregates average them.  Everything downstream of
the seeded networks is pure arithmetic over simulated time, so the
resulting scorecard document is byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compare.contestants import CHAMPION, CONTESTANTS, build_contestant
from repro.compare.scorecard import build_doc
from repro.compare.workload import CompareWorkload
from repro.obs.analyze import multicast_trees
from repro.obs.stream import SnapshotWriter, StreamWindower

__all__ = ["TournamentConfig", "run_tournament"]

#: ``on_window(seed, t, frames_by_name)`` — called after each lockstep
#: window boundary with every contestant's freshest frame.
WatchCallback = Callable[[int, float, Dict[str, Dict[str, Any]]], None]


@dataclass
class TournamentConfig:
    contestants: Tuple[str, ...]
    n_nodes: int = 40
    duration: float = 240.0
    window: float = 30.0
    seeds: Tuple[int, ...] = (0,)
    parallel: Optional[int] = None
    champion: str = CHAMPION

    def __post_init__(self):
        if self.duration <= 0 or self.window <= 0:
            raise ValueError("duration and window must be > 0")
        if not self.contestants:
            raise ValueError("at least one contestant required")
        unknown = [c for c in self.contestants if c not in CONTESTANTS]
        if unknown:
            raise ValueError(
                f"unknown contestant(s): {', '.join(unknown)} "
                f"(known: {', '.join(CONTESTANTS)})"
            )
        # One network per (contestant, seed): a repeated contestant would
        # have its network driven twice, a repeated seed counted twice.
        for what, values in (("contestants", self.contestants), ("seeds", self.seeds)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(
                    f"{what} must be distinct; listed more than once: "
                    f"{', '.join(map(str, repeated))}"
                )
        if not self.seeds:
            raise ValueError("seeds must not be empty: nothing would run")


@dataclass
class _Entry:
    run: Any
    windower: StreamWindower
    frames: List[Dict[str, Any]] = field(default_factory=list)


class _Collector:
    def __init__(self, frames: List[Dict[str, Any]]):
        self.frames = frames

    def write(self, frame: Dict[str, Any]) -> None:
        self.frames.append(frame)

    def close(self) -> None:
        pass


def _mean(values: List[float]) -> Optional[float]:
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else None


def _dist_mean(snapshot: Dict[str, Any], name: str) -> Optional[float]:
    dist = snapshot.get("dists", {}).get(name)
    if not dist or not dist.get("count"):
        return None
    return float(dist["mean"])


def _run_seed(
    cfg: TournamentConfig,
    seed: int,
    frames_dir: Optional[str] = None,
    on_window: Optional[WatchCallback] = None,
) -> List[Dict[str, Any]]:
    workload = CompareWorkload(seed, cfg.n_nodes, cfg.duration)
    entries: Dict[str, _Entry] = {}
    for name in cfg.contestants:
        run = build_contestant(name, seed, cfg.n_nodes, cfg.parallel)
        frames: List[Dict[str, Any]] = []
        sinks: List[Any] = [_Collector(frames)]
        if frames_dir is not None:
            sinks.append(
                SnapshotWriter(f"{frames_dir}/{name}-seed{seed}.jsonl")
            )
        windower = StreamWindower(
            run.net, window=cfg.window, spec=run.spec, sinks=sinks
        )
        entries[name] = _Entry(run=run, windower=windower, frames=frames)

    n_windows = int(cfg.duration // cfg.window)
    boundaries = [cfg.window * (i + 1) for i in range(n_windows)]
    marks = sorted(
        {round(t, 9) for t in boundaries}
        | {round(op.time, 9) for op in workload.ops}
        | {round(cfg.duration, 9)}
    )
    boundary_set = {round(b, 9) for b in boundaries}
    ops_by_time: Dict[float, List] = {}
    for op in workload.ops:
        ops_by_time.setdefault(round(op.time, 9), []).append(op)

    for mark in marks:
        for name in cfg.contestants:
            entries[name].windower.run(mark)
        for op in ops_by_time.get(mark, ()):
            for name in cfg.contestants:
                workload.apply(op, entries[name].run)
        if mark in boundary_set and on_window is not None:
            on_window(
                seed, mark,
                {
                    name: entries[name].frames[-1]
                    for name in cfg.contestants
                    if entries[name].frames
                },
            )

    rows: List[Dict[str, Any]] = []
    for name in cfg.contestants:
        entry = entries[name]
        entry.windower.finish()
        rows.append(_measure(cfg, seed, name, entry))
    if on_window is not None:
        on_window(
            seed, cfg.duration,
            {name: entries[name].frames[-1] for name in cfg.contestants},
        )
    return rows


def _measure(
    cfg: TournamentConfig, seed: int, name: str, entry: _Entry
) -> Dict[str, Any]:
    run = entry.run
    net = run.net
    snapshot = net.metrics_snapshot()
    spans = net.spans()
    trees = multicast_trees(spans)
    latencies = [
        t.completion_latency
        for t in trees
        if t.completion_latency is not None
    ]
    live = len(run.live_keys())
    bits = run.transport_bits()
    final = entry.frames[-1] if entry.frames else {}
    breaches_windows = sum(
        len(f.get("breaches", ())) for f in entry.frames if not f.get("final")
    )
    return {
        "contestant": name,
        "seed": seed,
        "live_final": live,
        "bits_total": bits,
        "bandwidth_bps_per_node": (
            bits / cfg.duration / live if live else 0.0
        ),
        "error_rate": run.error_rate(),
        "completeness": run.completeness(),
        "join_latency_s": _dist_mean(snapshot, "join.latency"),
        "detect_latency_s": _dist_mean(snapshot, "detect.latency"),
        "collection_latency_s": _mean(latencies),
        "mcast_trees": len(trees),
        "mcast_max_depth": max((t.depth for t in trees), default=0),
        "spans_total": len(spans),
        "windows": sum(1 for f in entry.frames if not f.get("final")),
        "window_breaches": breaches_windows,
        "final_breaches": [v["slo"] for v in final.get("breaches", ())],
        "healthy": bool(final.get("healthy", False)),
    }


_AGG_FIELDS = (
    "bandwidth_bps_per_node",
    "error_rate",
    "completeness",
    "join_latency_s",
    "detect_latency_s",
    "collection_latency_s",
)


def _aggregate(
    cfg: TournamentConfig, rows: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    out = []
    for name in cfg.contestants:
        mine = [r for r in rows if r["contestant"] == name]
        agg: Dict[str, Any] = {"contestant": name, "seeds": len(mine)}
        for fieldname in _AGG_FIELDS:
            agg[fieldname] = _mean([r[fieldname] for r in mine])
        agg["window_breaches"] = sum(r["window_breaches"] for r in mine)
        agg["healthy_seeds"] = sum(1 for r in mine if r["healthy"])
        agg["healthy"] = all(r["healthy"] for r in mine)
        out.append(agg)
    return out


def run_tournament(
    cfg: TournamentConfig,
    frames_dir: Optional[str] = None,
    on_window: Optional[WatchCallback] = None,
) -> Dict[str, Any]:
    """Run every seed, return the scorecard document (see
    :mod:`repro.compare.scorecard` for the schema)."""
    rows: List[Dict[str, Any]] = []
    for seed in cfg.seeds:
        rows.extend(_run_seed(cfg, seed, frames_dir=frames_dir, on_window=on_window))
    rows.sort(key=lambda r: (r["contestant"], r["seed"]))
    aggregates = _aggregate(cfg, rows)
    return build_doc(cfg, rows, aggregates)
