"""``python -m benchmarks.ledger run|compare`` — the human-facing commands.

``run`` measures every workload (``--repeat`` timed passes, then one
traced pass, each in a fresh child), prints every metric by name with
its unit, and writes the ledger file.  ``compare`` reads two ledger files and judges
the second against the first with the bounds of ``BENCHMARK.json``.
Neither claims a gain: a ledger ends with ``"claim": null``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger import spec
from benchmarks.ledger.harness import ChildFailed, spawn

SCHEMA = "repro.bench.ledger"


# -- run ---------------------------------------------------------------------------


def measure_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    timed = [
        spawn(name, args.seed, args.seconds, 0, args.quick) for _ in range(args.repeat)
    ]
    trace_out = f"{args.trace_dir}/{name}.trace.json" if args.trace_dir else None
    traced = spawn(name, args.seed, args.seconds, 1, args.quick, trace_out)
    prints = {record["fingerprint"] for record in timed + [traced]}
    if len(prints) != 1:
        raise ChildFailed(f"{name}: passes of one seed ended in different states: {prints}")
    first = timed[0]
    end_to_end = {}
    for metric, cell in first["metrics"].items():
        values = [record["metrics"][metric]["value"] for record in timed]
        end_to_end[metric] = {
            "unit": cell["unit"], "median": statistics.median(values), "values": values,
        }
    return {
        "fingerprint": first["fingerprint"],
        "attempted": first["attempted"],
        "failed": max(record["failed"] for record in timed),
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "samples": {"timed_runs": args.repeat, **first["samples"], **traced["samples"]},
        "provenance": first["provenance"],
        "stats": first["stats"],
    }


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}  attempted={result['attempted']} failed={result['failed']} "
          f"fingerprint={result['fingerprint'][:16]}")
    for metric, cell in result["end_to_end"].items():
        print(f"  {metric:<44} {cell['median']:>16.6g} {cell['unit']}  (n={len(cell['values'])})")
    for metric, cell in result["per_layer"].items():
        print(f"  {metric:<44} {cell['value']:>16.6g} {cell['unit']}")


def cmd_run(args: argparse.Namespace) -> int:
    names = spec.workload_names()
    workloads = {}
    try:
        for name in names:
            workloads[name] = measure_workload(name, args)
            print_workload(name, workloads[name])
    except ChildFailed as exc:
        print(f"ledger run failed, nothing written: {exc}", file=sys.stderr)
        return 1
    ledger = {
        "schema": SCHEMA, "schema_version": 1,
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "workloads": workloads,
        "claim": None,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
    print()
    print(json.dumps({"ledger": args.out, "workloads": names, "claim": None}, indent=2))
    return 0


# -- compare -----------------------------------------------------------------------


def spread(values: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median; ``None`` below
    four samples (unknown, which is not the same as zero)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def judge(entry: Dict[str, Any], base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """One (workload, end-to-end metric) row.  ``worsening`` is the share
    of the base median by which the new median is worse."""
    sign = 1.0 if entry["better"] == "lower" else -1.0
    a, b = base["median"], new["median"]
    worsening = sign * (b - a) / abs(a)
    spread_a, spread_b = spread(base["values"]), spread(new["values"])
    if spread_a is None or spread_b is None:
        # Equal values (simulated statistics of one seed) need no spread;
        # a difference of unknown spread is unverified, not a verdict.
        verdict = "within bound" if a == b else "unresolved (n<4)"
    elif max(spread_a, spread_b) > entry["bound"]:
        clean_win = all(
            sign * (y - x) < 0 for x in base["values"] for y in new["values"]
        )
        verdict = "better" if clean_win else "unresolved"
    elif worsening > entry["bound"]:
        verdict = "worse"
    elif worsening < -entry["bound"]:
        verdict = "better"
    else:
        verdict = "within bound"
    return {"base": a, "new": b, "ratio": b / a, "worsening": worsening, "verdict": verdict}


def cmd_compare(args: argparse.Namespace) -> int:
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    end_to_end = spec.metric_table("end_to_end")
    per_layer = spec.metric_table("per_layer")
    same_inputs = all(base[k] == new[k] for k in ("seed", "seconds", "quick"))
    problems: List[str] = []
    print(f"{'workload':<16} {'metric':<14} {'base':>14} {'new':>14}  new/base  verdict")
    for name in spec.workload_names():
        a: Optional[Dict[str, Any]] = base["workloads"].get(name)
        b: Optional[Dict[str, Any]] = new["workloads"].get(name)
        if a is None or b is None:
            problems.append(f"{name}: missing from one ledger")
            continue
        for metric, entry in end_to_end.items():
            row = judge(entry, a["end_to_end"][metric], b["end_to_end"][metric])
            print(f"{name:<16} {metric:<14} {row['base']:>14.6g} {row['new']:>14.6g}"
                  f"  {row['ratio']:.4f} of {row['base']:.6g} {entry['unit']}"
                  f"  {row['verdict']} (bound {entry['bound']})")
            if row["verdict"] == "worse":
                problems.append(f"{name}.{metric}: worse by {row['worsening']:.1%} of "
                                f"{row['base']:.6g} {entry['unit']} (bound {entry['bound']:.0%})")
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        if share_b > share_a:
            problems.append(f"{name}: failed share rose from {a['failed']}/{a['attempted']} "
                            f"to {b['failed']}/{b['attempted']}")
        if not same_inputs:
            continue
        if a["fingerprint"] != b["fingerprint"]:
            problems.append(f"{name}: fingerprints differ for the same seed "
                            f"({a['fingerprint'][:16]} vs {b['fingerprint'][:16]})")
        for metric, entry in per_layer.items():
            x, y = a["per_layer"][metric]["value"], b["per_layer"][metric]["value"]
            if spec.is_exact(entry) and x != y:
                problems.append(f"{name}.{metric}: exact count changed from {x} to {y}")
    if not same_inputs:
        print("seeds or sizes differ: fingerprints and exact counts not compared")
    for problem in problems:
        print("FAIL", problem)
    print("compare:", "regression" if problems else "no regression", "(no gain is claimed)")
    return 1 if problems else 0


# -- entry -------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload, timed then traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the ledger JSON here")
    run.add_argument("--seconds", type=float, default=float(spec.load()["run_seconds"]))
    run.add_argument("--repeat", type=int, default=5,
                     help="timed runs per workload; below 4, compare leaves "
                          "every host-time row unresolved")
    run.add_argument("--quick", action="store_true", help="test-suite size; not a measurement")
    run.add_argument("--trace-dir", default=None,
                     help="write each traced pass's raw spans (Chrome trace_event JSON) here")
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="judge ledger NEW against ledger BASE")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
