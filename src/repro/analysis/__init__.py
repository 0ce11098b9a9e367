"""repro.analysis — detlint, the determinism & LP-isolation analyzer.

A small AST-walking lint framework plus a rule pack encoding this
repository's correctness contracts (DESIGN.md §13):

=======  =============================================================
DET001   no wall-clock reads outside ``repro.live.clock``/benchmarks
DET002   no process-global or unseeded RNG outside ``repro.sim.rng``
DET003   no set/``dict.keys()`` iteration feeding protocol decisions
DET004   no float accumulation over unordered collections feeding
         metrics or protocol state
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
changed versus a ref.

The static rules have a runtime twin: :mod:`repro.analysis.detsan`, an
opt-in sanitizer (``REPRO_DETSAN=1`` or ``repro chaos --detsan``) that
walks every node's state after a run and names any received object
(a ``Pointer`` or ``Message``) kept there, and trips on wall-clock and
global-RNG calls from simulator code.
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
from repro.analysis.findings import Baseline, Finding

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "lint_source",
    "register",
    "rule_catalog",
    "run_lint",
]
