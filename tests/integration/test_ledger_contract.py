"""The benchmark's contract with ``src/``: everything it reaches exists.

``benchmarks/ledger/`` imports names from ``repro.*`` and wraps callables
by attribute; a rename or deletion under ``src/`` breaks it silently as
far as tier-1 is concerned (only ``check.sh --ledger`` would notice).
This reads the ledger — it runs no workload and installs no trace point.
"""

from benchmarks.ledger.tracer import Tracer, trace_points


def test_micro_rows_import_every_name_they_time():
    import benchmarks.ledger.micro  # noqa: F401 — the import is the assertion


def test_every_trace_point_resolves_to_a_callable():
    points = trace_points(Tracer())
    assert points
    for owner, attr, replacement in points:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr]), f"{owner.__name__}.{attr}"
        assert callable(replacement)
