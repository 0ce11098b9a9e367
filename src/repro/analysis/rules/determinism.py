"""Determinism rules: DET001 (wall clock), DET002 (unseeded/global RNG),
DET003 (unordered iteration feeding protocol decisions).

All three encode the repo's headline contract — *same seed, same bytes,
in every execution mode* (DESIGN.md §4, §12) — against the three ways
Python code most easily breaks it: reading the host clock, drawing from
a process-global or entropy-seeded RNG, and letting set/hash order pick
protocol targets.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.analysis.core import FileContext, Rule, register


class ImportMap(ast.NodeVisitor):
    """Resolve local names to canonical dotted origins.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from time import
    perf_counter as pc`` maps ``pc`` -> ``time.perf_counter``.
    """

    def __init__(self, tree: ast.AST):
        self.names: Dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            origin = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.names[local] = origin

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.names[local] = f"{node.module}.{alias.name}"

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.names.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


#: Wall-clock reads: anything observing host time.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register
class WallClockRule(Rule):
    """DET001 — no wall-clock reads in simulator code."""

    id = "DET001"
    title = "wall-clock read outside the live clock"
    rationale = (
        "Timestamps must come from the simulated clock (runtime.now); a "
        "host-clock read makes output depend on machine speed, breaking "
        "bit-identical sequential/partitioned replays.  Only "
        "repro.live.clock (the realtime backend's one sanctioned time "
        "source — everything else in repro.live must go through its "
        "Clock) and benchmarks may read host time; no engine does."
    )
    exempt_modules = ("repro.live.clock",)

    def check(self, ctx: FileContext) -> None:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = imports.qualify(node.func)
            if qual in WALL_CLOCK_CALLS:
                ctx.report(
                    self,
                    node,
                    f"wall-clock call {qual}() — use the simulated clock "
                    f"(runtime.now); host time is measured from outside, "
                    f"by benchmarks/ledger",
                )


#: numpy.random attributes that are *constructors* of explicitly seeded
#: generators (fine when given a seed) rather than draws from the global
#: process-wide RNG.
_NP_RANDOM_CONSTRUCTORS = {
    "default_rng",
    "Generator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "SeedSequence",
    "BitGenerator",
}


@register
class UnseededRandomRule(Rule):
    """DET002 — no process-global or entropy-seeded RNG."""

    id = "DET002"
    title = "module-level or unseeded random source"
    rationale = (
        "The stdlib random module and numpy's module-level random "
        "functions share one hidden process-global state: any draw "
        "perturbs every later draw everywhere, and OS-entropy seeding "
        "(default_rng() with no arguments) differs per run.  All "
        "randomness flows from repro.sim.rng.RandomStreams so streams "
        "are named, independent, and replayable."
    )
    exempt_modules = ("repro.sim.rng",)

    def check(self, ctx: FileContext) -> None:
        imports = ImportMap(ctx.tree)
        self._check_imports(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = imports.qualify(node.func)
            if qual is None:
                continue
            self._check_call(ctx, node, qual)

    def _check_imports(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        ctx.report(
                            self,
                            node,
                            "stdlib random is a hidden process-global RNG; "
                            "draw from repro.sim.rng.RandomStreams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    ctx.report(
                        self,
                        node,
                        "stdlib random is a hidden process-global RNG; "
                        "draw from repro.sim.rng.RandomStreams instead",
                    )

    def _check_call(self, ctx: FileContext, node: ast.Call, qual: str) -> None:
        parts = qual.split(".")
        if parts[0] == "random" and len(parts) == 2:
            # Module-level stdlib draw reached via an aliased import.
            ctx.report(
                self, node, f"{qual}() draws from the process-global RNG"
            )
            return
        if not qual.startswith("numpy.random."):
            return
        tail = parts[-1]
        if tail in _NP_RANDOM_CONSTRUCTORS:
            if not node.args and not node.keywords:
                ctx.report(
                    self,
                    node,
                    f"{tail}() with no seed draws OS entropy — seed it "
                    f"(ideally via repro.sim.rng.RandomStreams)",
                )
        else:
            ctx.report(
                self,
                node,
                f"numpy.random.{tail}() uses the module-level global RNG; "
                f"use a Generator from repro.sim.rng.RandomStreams",
            )


#: Call/method names that constitute a protocol decision: sending,
#: peer-list/top-list mutation, target choice, scheduling.
DECISION_SINKS: Set[str] = {
    "send",
    "send_message",
    "make_reply",
    "install",
    "add",
    "remove",
    "merge",
    "update",
    "multicast",
    "mcast",
    "relay",
    "forward",
    "report_event",
    "schedule",
    "call_later",
    "choose",
    "push",
    "leave",
    "crash",
}


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_unordered(node: ast.AST) -> bool:
    """Does this expression produce a hash-ordered iterable?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in ("set", "frozenset"):
            return True
        if name == "keys" and isinstance(node.func, ast.Attribute):
            return True
        if name in ("union", "intersection", "difference", "symmetric_difference"):
            return _is_unordered(node.func.value) if isinstance(
                node.func, ast.Attribute
            ) else False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


def _has_sink(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = _call_name(sub)
            if name in DECISION_SINKS:
                return True
    return False


@register
class UnorderedIterationRule(Rule):
    """DET003 — no set/keys() iteration feeding protocol decisions."""

    id = "DET003"
    title = "unordered iteration feeds a protocol decision"
    rationale = (
        "Iterating a set (or dict keys built in schedule-dependent "
        "order) and sending / mutating peer state per element makes the "
        "action order depend on hash seeds and insertion history, which "
        "differs between sequential and partitioned schedules.  Wrap "
        "the iterable in sorted(...) to pin the order."
    )

    _msg = (
        "iteration over an unordered {what} drives a protocol decision; "
        "wrap the iterable in sorted(...)"
    )

    _SIMPLE_STMTS = (
        ast.Expr,
        ast.Assign,
        ast.AugAssign,
        ast.AnnAssign,
        ast.Return,
        ast.Assert,
    )

    def check(self, ctx: FileContext) -> None:
        # Map each comprehension to its enclosing *simple* statement for
        # the sink scan (compound statements would widen the scan to a
        # whole function body).
        stmt_of: Dict[int, ast.stmt] = {}
        for stmt in ast.walk(ctx.tree):
            if isinstance(stmt, self._SIMPLE_STMTS):
                for sub in ast.walk(stmt):
                    stmt_of.setdefault(id(sub), stmt)
        set_names = _set_bound_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._unordered(node.iter, set_names) and (
                    _has_sink(node) or _returns(node)
                ):
                    ctx.report(self, node.iter, self._describe(node.iter))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                if isinstance(node, ast.SetComp):
                    continue  # producing a set is fine; iterating one is not
                for gen in node.generators:
                    if self._unordered(gen.iter, set_names):
                        stmt = stmt_of.get(id(node))
                        if stmt is not None and _has_sink(stmt):
                            ctx.report(self, gen.iter, self._describe(gen.iter))

    @staticmethod
    def _unordered(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        return _is_unordered(node)

    def _describe(self, iter_node: ast.AST) -> str:
        what = "set"
        if isinstance(iter_node, ast.Call) and _call_name(iter_node) == "keys":
            what = "dict.keys() view"
        return self._msg.format(what=what)


def _set_bound_names(tree: ast.AST) -> Set[str]:
    """Names ever assigned a syntactically set-typed value.  Coarse (no
    scoping, no kill on rebind) — iterating such a name is suspect even
    if some other assignment made it a list."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_unordered(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            ann = node.annotation
            if (isinstance(ann, ast.Name) and ann.id in ("set", "frozenset")) or (
                node.value is not None and _is_unordered(node.value)
            ):
                names.add(node.target.id)
    return names


def _returns(node: ast.AST) -> bool:
    """Does the loop body return per-element results (an ordered
    consumer upstream cannot reorder them)?"""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
    return False


#: Callable names that sum floats: ``sum`` is left-to-right dependent,
#: ``fsum``/``nansum`` advertise float inputs outright.
_SUM_CALLS = {"sum", "fsum", "nansum"}
#: Metric recording methods (see repro.obs.metrics / rule OBS001).
_METRIC_METHODS = {"inc", "observe", "set_gauge"}


def _sum_over_unordered(node: ast.Call, set_names: Set[str]) -> bool:
    """Is this a ``sum(...)``-family call whose iterable is unordered —
    either directly (``sum(weights_set)``) or through a comprehension
    over one (``sum(p.w for p in peers_set)``)?"""
    if _call_name(node) not in _SUM_CALLS or not node.args:
        return False
    arg = node.args[0]
    if isinstance(arg, ast.Name) and arg.id in set_names:
        return True
    if _is_unordered(arg):
        return True
    if isinstance(arg, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        for gen in arg.generators:
            if (
                isinstance(gen.iter, ast.Name) and gen.iter.id in set_names
            ) or _is_unordered(gen.iter):
                return True
    return False


def _ctx_rooted(node: ast.AST) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("self", "ctx")


def _feeds_state(stmt: ast.stmt) -> bool:
    """Does this simple statement let a float total escape into protocol
    state or a metric — assignment to ctx/self, a return, or a metric
    recording call?"""
    if isinstance(stmt, ast.Return):
        return True
    if isinstance(stmt, ast.Assign) and any(
        _ctx_rooted(t) for t in stmt.targets
    ):
        return True
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) and _ctx_rooted(
        stmt.target
    ):
        return True
    for sub in ast.walk(stmt):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _METRIC_METHODS
        ):
            return True
    return False


@register
class FloatAccumulationRule(Rule):
    """DET004 — no float accumulation over unordered collections feeding
    metrics or protocol state."""

    id = "DET004"
    title = "float accumulation over an unordered collection"
    rationale = (
        "Float addition is not associative: summing a set's elements "
        "visits them in hash order, so the rounding error — and "
        "eventually a threshold comparison or a published metric — "
        "depends on hash seeds and insertion history, not the protocol.  "
        "Sort the iterable (sorted(...)) before summing; if the elements "
        "are ints the sum is order-independent and a suppression comment "
        "saying so is fine."
    )

    _SIMPLE_STMTS = (
        ast.Expr,
        ast.Assign,
        ast.AugAssign,
        ast.AnnAssign,
        ast.Return,
    )

    def check(self, ctx: FileContext) -> None:
        set_names = _set_bound_names(ctx.tree)
        self._check_sum_calls(ctx, set_names)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_loop_accumulation(ctx, node, set_names)

    def _check_sum_calls(self, ctx: FileContext, set_names: Set[str]) -> None:
        # Map each sum() call to its enclosing simple statement, so we
        # only flag totals that actually escape (state/metric/return).
        stmt_of: Dict[int, ast.stmt] = {}
        for stmt in ast.walk(ctx.tree):
            if isinstance(stmt, self._SIMPLE_STMTS):
                for sub in ast.walk(stmt):
                    stmt_of.setdefault(id(sub), stmt)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _sum_over_unordered(node, set_names):
                continue
            stmt = stmt_of.get(id(node))
            if stmt is not None and _feeds_state(stmt):
                ctx.report(
                    self,
                    node,
                    "float sum over an unordered collection feeds protocol "
                    "state or a metric; the total depends on hash order — "
                    "sum over sorted(...) instead",
                )

    def _check_loop_accumulation(
        self, ctx: FileContext, fn: ast.AST, set_names: Set[str]
    ) -> None:
        # for x in some_set: acc += ...   where acc later reaches state,
        # a metric, or a return inside the same function.
        for node in ast.walk(fn):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            unordered = (
                isinstance(node.iter, ast.Name) and node.iter.id in set_names
            ) or _is_unordered(node.iter)
            if not unordered:
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.AugAssign)
                    and isinstance(sub.op, ast.Add)
                    and isinstance(sub.target, ast.Name)
                    and self._escapes(fn, sub.target.id, node)
                ):
                    ctx.report(
                        self,
                        sub,
                        f"accumulator {sub.target.id!r} grows in hash order "
                        f"over an unordered iterable and then feeds state, "
                        f"a metric, or a return — iterate sorted(...) (or "
                        f"suppress if the elements are ints)",
                    )

    @staticmethod
    def _escapes(fn: ast.AST, name: str, loop: ast.AST) -> bool:
        loop_nodes = {id(sub) for sub in ast.walk(loop)}
        for stmt in ast.walk(fn):
            if id(stmt) in loop_nodes:
                continue
            if not isinstance(
                stmt, (ast.Return, ast.Assign, ast.AugAssign, ast.Expr)
            ):
                continue
            uses = any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(stmt)
            )
            if not uses:
                continue
            if _feeds_state(stmt):
                return True
        return False
