"""repro.analysis — detlint, the determinism & LP-isolation analyzer.

A small AST-walking lint framework plus the rules that catch a planted
bug no test catches (the guard × bug matrix, DESIGN.md §13):

=======  =============================================================
DET001   no wall-clock reads outside ``repro.live.clock``/benchmarks
DET002   no process-global or unseeded RNG outside ``repro.sim.rng``
DET003   no set/``dict.keys()`` iteration feeding protocol decisions
ISO002   services touch peer state only through the ``NodeContext``
ISO003   no mutable module/class state reachable from multiple LPs
WIRE001  message construction sites match the wire body schemas in
         ``repro.kernel.schema`` (all 17 kinds)
=======  =============================================================

Run it as ``repro lint src/repro`` (see ``repro lint --help``).  The gate
is zero findings; an intended violation takes a per-line
``# detlint: ignore[RULE]`` pragma with its reason beside it.

The static rules have a runtime twin: :mod:`repro.analysis.detsan`, an
opt-in sanitizer (``repro chaos --detsan``) that walks every node's
state after a run and names any received object (a ``Pointer`` or
``Message``) kept there, and trips on wall-clock and global-RNG calls
from simulator code.
"""

from repro.analysis.core import (
    FileContext,
    Rule,
    all_rules,
    lint_source,
    register,
    rule_catalog,
    run_lint,
)
from repro.analysis.findings import Finding

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "lint_source",
    "register",
    "rule_catalog",
    "run_lint",
]
