#!/usr/bin/env python3
"""Regenerate the committed BENCH_*.json documents, or byte-compare them.

Usage (from the repo root)::

    python scripts/bench_trajectory.py            # rewrite BENCH_health.json
    python scripts/bench_trajectory.py --check    # compare, don't write
    python scripts/bench_trajectory.py --quick    # smoke cells only
    python scripts/bench_trajectory.py --baselines  # also BENCH_baselines.json
    python scripts/bench_trajectory.py --paper    # BENCH_paper.json only
    python scripts/bench_trajectory.py --paper --check

``BENCH_health.json`` replays the fixed seed matrix from
``benchmarks.bench_health`` (chaos run -> span analytics -> SLO verdicts
per cell).  ``--baselines`` adds ``BENCH_baselines.json``: the seeded
protocol-tournament scorecard from ``benchmarks.bench_baseline_comparison``.
``--paper`` builds ``BENCH_paper.json`` instead (``benchmarks.bench_paper``:
the paper's figures at 100,000 nodes, each claim a row with its band and
verdict, ~1 min) and renders EXPERIMENTS.md's generated tables from it;
with ``--check`` it compares both.  Every document is a pure function of
its seeds, written as sorted, indented JSON, so rerunning on the same tree
is byte-identical: a diff in a committed file means behaviour moved.

Engine cost (wall clock, RSS, per-layer breakdown) is not measured here:
that is ``benchmarks/ledger/``, whose numbers are machine-dependent and
therefore kept out of the byte-identical documents this script owns.

Exit status: 0 when every cell and champion is healthy and no paper row
fails (and, under ``--check``, every file matches); 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from benchmarks.bench_health import (  # noqa: E402
    MATRIX,
    TRAJECTORY_PATH,
    build_trajectory,
)


def render(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def settle(path: str, text: str, check: bool, regenerate: str) -> bool:
    """Write ``text`` to ``path``, or under ``check`` compare it with the
    file; False when the file is missing or stale."""
    if not check:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
        return True
    try:
        with open(path, "r", encoding="utf-8") as fh:
            current = fh.read()
    except OSError:
        print(f"missing {path}; run {regenerate} to create it")
        return False
    if current != text:
        print(f"{path} is stale; regenerate with {regenerate}")
        return False
    print(f"{path} is current")
    return True


def run_health(check: bool, out: str, quick: bool) -> bool:
    matrix = tuple(c for c in MATRIX if c[0] == "smoke") if quick else MATRIX
    for scenario, n, seed in matrix:
        print(f"cell {scenario} n={n} seed={seed} ...", flush=True)
    started = time.perf_counter()
    doc = build_trajectory(matrix)
    # For the eye, never judged: one span analysis per cell.
    print(f"{len(matrix)} cells in {time.perf_counter() - started:.2f} host-s")
    for cell in doc["matrix"]:
        state = "healthy" if cell["healthy"] else (
            "UNHEALTHY: " + ", ".join(cell["breaches"]))
        print(f"  {cell['scenario']} n={cell['n_nodes']} "
              f"seed={cell['seed']}: {state} "
              f"(completeness "
              f"{cell['signals']['mcast.tree_completeness']:.4f})")
    current = settle(out, render(doc), check, "python scripts/bench_trajectory.py")
    return current and doc["summary"]["healthy"]


def run_baselines(check: bool, out: str) -> bool:
    """Regenerate or byte-compare the tournament scorecard point."""
    from benchmarks.bench_baseline_comparison import build_baselines_doc

    doc = build_baselines_doc()
    for row in doc["rows"]:
        state = "healthy" if row["healthy"] else (
            "UNHEALTHY: " + ", ".join(row["final_breaches"]))
        print(f"  {row['contestant']} seed={row['seed']}: {state} "
              f"(bw {row['bandwidth_bps_per_node']:.1f} bps/node, "
              f"error {row['error_rate']:.4f})")
    current = settle(out, render(doc), check,
                     "python scripts/bench_trajectory.py --baselines")
    return current and doc["champion_healthy"]


def run_paper(check: bool) -> bool:
    """Regenerate or byte-compare BENCH_paper.json and EXPERIMENTS.md's
    generated tables."""
    from benchmarks.bench_paper import (
        EXPERIMENTS_PATH,
        PAPER_PATH,
        build_paper_doc,
        render_experiments,
    )

    started = time.perf_counter()
    doc = build_paper_doc()
    print(f"{len(doc['rows'])} rows in {time.perf_counter() - started:.1f} host-s")
    failed = [row for row in doc["rows"] if row["ok"] is False]
    for row in failed:
        print(f"  FAILED {row['id']}: measured {row['measured']}, band {row['band']}")
    with open(EXPERIMENTS_PATH, "r", encoding="utf-8") as fh:
        experiments = render_experiments(doc, fh.read())
    regenerate = "python scripts/bench_trajectory.py --paper"
    current = settle(PAPER_PATH, render(doc), check, regenerate)
    current = settle(EXPERIMENTS_PATH, experiments, check, regenerate) and current
    return current and not failed


def main(argv=None) -> int:
    from benchmarks.bench_baseline_comparison import BASELINES_PATH

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=TRAJECTORY_PATH,
                        help="output path (default: repo-root BENCH_health.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the existing file instead of writing")
    parser.add_argument("--quick", action="store_true",
                        help="run only the smoke cells (fast sanity pass)")
    parser.add_argument("--baselines", action="store_true",
                        help="also regenerate (or --check) the committed "
                             "protocol-tournament scorecard "
                             "BENCH_baselines.json")
    parser.add_argument("--baselines-out", default=BASELINES_PATH,
                        help="tournament scorecard output path (default: "
                             "repo-root BENCH_baselines.json)")
    parser.add_argument("--paper", action="store_true",
                        help="regenerate (or --check) only BENCH_paper.json "
                             "and EXPERIMENTS.md's generated tables")
    args = parser.parse_args(argv)

    if args.paper:
        return 0 if run_paper(args.check) else 1
    ok = run_health(args.check, args.out, args.quick)
    if args.baselines:
        print("tournament scorecard:")
        ok = run_baselines(args.check, args.baselines_out) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
