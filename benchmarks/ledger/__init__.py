"""The layered perf ledger: the repo's benchmark.

Five named workloads, each run in a fresh child process, first timed
with tracing off (end-to-end metrics) and then traced (per-layer
metrics).  ``BENCHMARK.json`` at the repo root declares every workload,
metric, unit and bound; this package measures exactly those names and
nothing else.  See ``README.md`` next to this file.

Entry points::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.ledger run --seed 0 --out ledger.json
    PYTHONPATH=src python -m benchmarks.ledger compare A.json B.json
"""
