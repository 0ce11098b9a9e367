"""The driver's entry point (the ``command`` of ``BENCHMARK.json``).

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

Runs one pass of one workload in a child process and prints, as the
last line of standard output, one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
printing no result, when the program under test is missing or an output
check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))  # run as a script: make the package importable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="test-suite size (< 2 s); not a measurement")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    from benchmarks.ledger.harness import ChildFailed, spawn

    try:
        record = spawn(args.workload, args.seed, args.seconds, args.trace, args.quick)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
