"""repro.analysis — detlint, the determinism & LP-isolation analyzer.

A small AST-walking lint framework plus a rule pack encoding this
repository's correctness contracts (DESIGN.md §13):

=======  =============================================================
DET001   no wall-clock reads outside ``repro.live.clock``/benchmarks
DET002   no process-global or unseeded RNG outside ``repro.sim.rng``
DET003   no set/``dict.keys()`` iteration feeding protocol decisions
DET004   no float accumulation over unordered collections feeding
         metrics or protocol state
ISO001   message payload objects are copied, never aliased, into state
         — checked per-file *and* interprocedurally through helper
         calls, return values, and handler handoffs (``project.py``)
ISO002   services touch peer state only through the ``NodeContext``
ISO003   no mutable module/class state reachable from multiple LPs
OBS001   every span opened with ``start()`` is ended on all paths
OBS002   metric names are registered before use
WIRE001  message construction sites match the wire body schemas in
         ``repro.kernel.schema`` (all 17 kinds)
=======  =============================================================

Run it as ``repro lint src/repro`` (see ``repro lint --help``); findings
can be suppressed per line (``# detlint: ignore[RULE]``) or
grandfathered in ``detlint-baseline.json`` so CI gates only on *new*
findings.  ``repro lint --changed <git-ref>`` lints only the files
changed versus a ref (per-file rules only).

The static rules have a runtime twin: :mod:`repro.analysis.detsan`, an
opt-in sanitizer (``REPRO_DETSAN=1`` or ``repro chaos --detsan``) that
tags payload object identities at the transport boundary and trips when
one is retained, un-copied, in any node's state — cross-validating
ISO001/ISO003 against what actually happens under chaos.
"""

from repro.analysis.core import (
    FileContext,
    Rule,
    all_rules,
    lint_project_sources,
    lint_source,
    register,
    rule_catalog,
    run_lint,
)
from repro.analysis.findings import Baseline, Finding

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "lint_project_sources",
    "lint_source",
    "register",
    "rule_catalog",
    "run_lint",
]
