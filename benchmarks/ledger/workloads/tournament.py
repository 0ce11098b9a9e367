"""``tournament``: ``run_tournament`` over all six contestants, with
observability, the telemetry bus and ``StreamWindower`` on."""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List

from benchmarks.ledger.workloads import CheckFailed, Outcome, Workload
from repro.compare import TournamentConfig, contestant_names, run_tournament
from repro.compare.contestants import CHAMPION
from repro.compare.scorecard import champion_healthy


def _tournament_size(seconds: float, quick: bool) -> Dict[str, Any]:
    if quick:
        return {"n_nodes": 30, "duration": 60.0, "window": 30.0}
    # 240 sim-s costs ~19 host-s (peerwindow ~2/3 of it).
    return {"n_nodes": 200, "duration": 13.0 * seconds, "window": 30.0}


def _tournament_build(seed: int, size: Dict[str, Any]) -> TournamentConfig:
    # Populations are seeded inside run_tournament, so that cost is in
    # wall_s here; set-up is the imports.
    return TournamentConfig(contestants=tuple(contestant_names()), seeds=(seed,), **size)


def _tournament_run(cfg: TournamentConfig) -> Dict[str, Any]:
    doc = run_tournament(cfg)
    return {"rows": doc["rows"], "champion_healthy": doc["champion_healthy"], "alone_s": {}}


def _tournament_run_alone(cfg: TournamentConfig) -> Dict[str, Any]:
    """Each contestant in a tournament of its own: the same rows (every
    contestant owns its network), and a wall time per contestant.  The
    traced pass runs this twice, untraced then traced; the times reported
    are the untraced ones."""
    rows: List[Dict[str, Any]] = []
    alone_s: Dict[str, float] = {}
    for name in cfg.contestants:
        t0 = time.perf_counter()
        rows.extend(run_tournament(replace(cfg, contestants=(name,)))["rows"])
        alone_s[name] = time.perf_counter() - t0
    rows.sort(key=lambda r: (r["contestant"], r["seed"]))
    return {"rows": rows, "champion_healthy": champion_healthy(cfg.champion, rows),
            "alone_s": alone_s}


def _tournament_check(cfg: TournamentConfig, raw: Dict[str, Any]) -> Outcome:
    if not raw["champion_healthy"]:
        raise CheckFailed("tournament scorecard: champion breached its health bands")
    rows = raw["rows"]
    if [r["contestant"] for r in rows] != sorted(cfg.contestants):
        raise CheckFailed("tournament scorecard is missing contestant rows")
    champion = next(r for r in rows if r["contestant"] == CHAMPION)
    stats = {
        "rows": rows, "champion_healthy": True,
        "error_rate": champion["error_rate"],
        "bandwidth_bps_per_node": champion["bandwidth_bps_per_node"],
    }
    return Outcome(
        stats=stats,
        attempted=len(rows),
        failed=sum(1 for r in rows if not r["healthy"]),
        events=sum(r["spans_total"] for r in rows),
        accuracy=1.0 - champion["error_rate"],
        layer={f"compare.contestant_s.{name}": s for name, s in raw["alone_s"].items()},
    )


WORKLOADS = {
    "tournament": Workload(
        "tournament", _tournament_size, _tournament_build, _tournament_run,
        _tournament_check, run_traced=_tournament_run_alone),
}
