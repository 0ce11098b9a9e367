#!/usr/bin/env python3
"""Regenerate BENCH_health.json, the committed health-trajectory point.

Replays the fixed seed matrix from ``benchmarks.bench_health`` (chaos
run -> span analytics -> SLO verdicts per cell) and writes the result
as sorted, indented JSON.  Every cell is a pure function of
``(scenario, n_nodes, seed)``, so rerunning on the same tree is
byte-identical: a diff in the committed file means protocol behaviour
moved, and review sees exactly which signal moved where.

Usage (from the repo root)::

    python scripts/bench_trajectory.py            # rewrite BENCH_health.json
    python scripts/bench_trajectory.py --check    # compare, don't write
    python scripts/bench_trajectory.py --quick    # smoke cells only
    python scripts/bench_trajectory.py --baselines  # also BENCH_baselines.json

``--baselines`` regenerates (or, with ``--check``, byte-compares)
``BENCH_baselines.json``: the seeded protocol-tournament scorecard from
``benchmarks.bench_baseline_comparison`` — every executable contestant
over one identical churn workload.  Like the health trajectory it is a
pure function of its seed matrix, so the committed file is
byte-identical across reruns and engines.

Engine cost (wall clock, RSS, per-layer breakdown) is not measured here:
that is ``benchmarks/ledger/``, whose numbers are machine-dependent and
therefore kept out of the byte-identical documents this script owns.

Exit status: 0 when every cell is healthy (and, under ``--check``, the
file matches); 1 otherwise.
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_baselines(check: bool, out: str) -> int:
    """Regenerate or byte-compare the tournament scorecard point."""
    from benchmarks.bench_baseline_comparison import build_baselines_doc

    doc = build_baselines_doc()
    for row in doc["rows"]:
        state = "healthy" if row["healthy"] else (
            "UNHEALTHY: " + ", ".join(row["final_breaches"]))
        print(f"  {row['contestant']} seed={row['seed']}: {state} "
              f"(bw {row['bandwidth_bps_per_node']:.1f} bps/node, "
              f"error {row['error_rate']:.4f})")
    text = render(doc)
    if check:
        try:
            with open(out, "r", encoding="utf-8") as fh:
                current = fh.read()
        except OSError:
            print(f"missing {out}; run --baselines without --check to create it")
            return 1
        if current != text:
            print(f"{out} is stale; regenerate with "
                  f"python scripts/bench_trajectory.py --baselines")
            return 1
        print(f"{out} is current")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out} ({len(doc['rows'])} rows)")
    return 0 if doc["champion_healthy"] else 1


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
    args = parser.parse_args(argv)

    matrix = tuple(c for c in MATRIX if c[0] == "smoke") if args.quick else MATRIX
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

    text = render(doc)
    if args.check:
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                current = fh.read()
        except OSError:
            print(f"missing {args.out}; run without --check to create it")
            return 1
        if current != text:
            print(f"{args.out} is stale; regenerate with "
                  f"python scripts/bench_trajectory.py")
            return 1
        print(f"{args.out} is current")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({doc['summary']['cells']} cells)")
    status = 0 if doc["summary"]["healthy"] else 1
    if args.baselines:
        print("tournament scorecard:")
        rc = run_baselines(args.check, args.baselines_out)
        if rc:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
