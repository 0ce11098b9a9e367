"""Observability rules: OBS001 span lifecycle, OBS002 metric-name hygiene.

The tracer's export invariant (DESIGN.md §12) is that an ``end=None``
span means *the run stopped mid-operation* — never that an instrumented
code path forgot to close it.  A leaked span also stays in flight in
the node's span store, whose in-flight trace ids the invariant monitor
reads to attribute violations; a forgotten close poisons that
attribution forever after.

The rule understands this repo's idioms:

* opens are ``<...>obs.start(...)`` (the receiver's last name segment is
  ``obs`` or ends with ``obs``); ``instant(...)`` closes itself;
* ``if obs.enabled:`` guards are transparent — when the guard is false
  no span was opened, so guarded opens/closes pair up as if
  unconditional;
* a span stored on ``self.<attr>`` escapes the function; the rule then
  only requires *some* ``end(self.<attr> ...)`` in the same module;
* a span captured by a nested function or lambda that closes it is
  accepted (continuation-passing handlers close spans in callbacks);
* explicit ``raise`` exits are exempt: an exception is exactly the
  "run stopped" case ``end=None`` exists to represent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

from repro.analysis.core import FileContext, Rule, register

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_obs_receiver(node: ast.AST) -> bool:
    """Names the tracer handle: ``obs``, ``ctx.obs``, ``self._obs``..."""
    if isinstance(node, ast.Name):
        return node.id == "obs" or node.id.endswith("obs")
    if isinstance(node, ast.Attribute):
        return node.attr == "obs" or node.attr.endswith("obs")
    return False


def _is_span_open(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "start"
        and _is_obs_receiver(node.func.value)
    )


def _is_end_call_on(node: ast.AST, name: str) -> bool:
    """``<obs>.end(name, ...)`` or ``name.end(...)``-style close."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr != "end":
        return False
    if _is_obs_receiver(node.func.value):
        return any(
            isinstance(arg, ast.Name) and arg.id == name for arg in node.args
        )
    return isinstance(node.func.value, ast.Name) and node.func.value.id == name


def _is_end_call_on_attr(node: ast.AST, attr: str) -> bool:
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr != "end":
        return False
    return any(
        isinstance(arg, ast.Attribute) and arg.attr == attr for arg in node.args
    )


def _is_obs_guard(test: ast.AST) -> bool:
    """``if obs.enabled:`` (possibly conjoined) — transparent for span
    pairing."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
    return False


def _mentions_name(test: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(test)
    )


@dataclass
class _PathState:
    ended: bool = False
    terminated: bool = False  # every path through here returned/raised


@register
class SpanLifecycleRule(Rule):
    """OBS001 — spans opened with start() must be ended on all paths."""

    id = "OBS001"
    title = "span opened but not closed on every path"
    rationale = (
        "An unclosed span exports with end=None (reserved for runs that "
        "stop mid-operation) and stays in flight in the NodeObs store, "
        "which the invariant monitor reads to attribute violations to "
        "in-flight traces.  Close the span on every normal exit, or use "
        "instant() for point events."
    )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(ctx, node)
        self._check_discards(ctx)

    # -- discarded opens ---------------------------------------------------

    def _check_discards(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Expr)
                and _is_span_open(node.value)
            ):
                ctx.report(
                    self,
                    node,
                    "span opened and immediately discarded — nothing can "
                    "ever end it; use instant() for a point event",
                )

    # -- per-function span tracking ---------------------------------------

    def _check_function(self, ctx: FileContext, fn: FuncDef) -> None:
        for name, open_node in self._local_opens(fn):
            if self._escapes(fn, name, open_node):
                continue
            if not self._closes_on_all_paths(fn.body, name, open_node):
                ctx.report(
                    self,
                    open_node,
                    f"span {name!r} is not ended on every path through "
                    f"{fn.name}()",
                )
        for attr, open_node in self._attr_opens(fn):
            if not self._module_ends_attr(ctx, attr):
                ctx.report(
                    self,
                    open_node,
                    f"span stored on self.{attr} is never passed to "
                    f"end() anywhere in this module",
                )

    def _local_opens(self, fn: FuncDef) -> List[tuple]:
        out = []
        for stmt in self._own_statements(fn):
            if isinstance(stmt, ast.Assign) and _is_span_open(stmt.value):
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    out.append((target.id, stmt.value))
        return out

    def _attr_opens(self, fn: FuncDef) -> List[tuple]:
        out = []
        for stmt in self._own_statements(fn):
            if isinstance(stmt, ast.Assign) and _is_span_open(stmt.value):
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append((target.attr, stmt.value))
        return out

    def _own_statements(self, fn: FuncDef) -> List[ast.stmt]:
        """Statements of ``fn`` excluding nested function bodies."""
        out: List[ast.stmt] = []

        def walk(stmts: Sequence[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                out.append(stmt)
                for block in self._blocks(stmt):
                    walk(block)

        walk(fn.body)
        return out

    @staticmethod
    def _blocks(stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks = []
        for field in ("body", "orelse", "finalbody"):
            value = getattr(stmt, field, None)
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                blocks.append(value)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks

    def _escapes(self, fn: FuncDef, name: str, open_node: ast.AST) -> bool:
        """The span outlives the function: captured by a nested
        function/lambda (continuation-passing close) or passed as an
        argument to any non-``end`` call (e.g. ``runtime.schedule(...,
        span)`` hands it to the callback that will close it)."""
        for stmt in ast.walk(fn):
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt is not fn
            ) or isinstance(stmt, ast.Lambda):
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
            elif isinstance(stmt, ast.Call) and not _is_end_call_on(stmt, name):
                for arg in list(stmt.args) + [kw.value for kw in stmt.keywords]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Lambda):
                            continue
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
        return False

    def _module_ends_attr(self, ctx: FileContext, attr: str) -> bool:
        return any(
            _is_end_call_on_attr(node, attr) for node in ast.walk(ctx.tree)
        )

    # -- all-paths close analysis -----------------------------------------

    def _closes_on_all_paths(
        self, body: List[ast.stmt], name: str, open_node: ast.AST
    ) -> bool:
        self._violation = False
        self._opened_reached = False
        state = self._analyze(body, name, _PathState(), seen_open=False,
                              open_node=open_node)
        if self._violation:
            return False
        # Fallthrough off the end of the function without an end call.
        return state.terminated or state.ended or not self._opened_reached

    def _analyze(
        self,
        stmts: Sequence[ast.stmt],
        name: str,
        state: _PathState,
        seen_open: bool,
        open_node: ast.AST,
    ) -> _PathState:
        for stmt in stmts:
            if state.terminated:
                break
            if isinstance(stmt, ast.Assign) and stmt.value is open_node:
                seen_open = True
                self._opened_reached = True
                state.ended = False
                continue
            if not seen_open and not self._opened_reached:
                # Before the open nothing matters — but an If may contain
                # the open in a guard block.
                if isinstance(stmt, ast.If) and self._contains_open(
                    stmt, open_node
                ):
                    if _is_obs_guard(stmt.test):
                        state = self._analyze(
                            stmt.body, name, state, seen_open, open_node
                        )
                        seen_open = self._opened_reached
                    else:
                        # Conditionally opened without an obs guard: track
                        # the branch alone.
                        branch = self._analyze(
                            stmt.body, name, _PathState(), seen_open, open_node
                        )
                        seen_open = False
                continue
            state = self._step(stmt, name, state, open_node)
        return state

    def _contains_open(self, stmt: ast.stmt, open_node: ast.AST) -> bool:
        return any(sub is open_node for sub in ast.walk(stmt))

    def _step(
        self, stmt: ast.stmt, name: str, state: _PathState, open_node: ast.AST
    ) -> _PathState:
        if self._stmt_ends(stmt, name):
            state.ended = True
            return state
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if isinstance(stmt, ast.Return) and not state.ended:
                self._violation = True
            state.terminated = True
            return state
        if isinstance(stmt, ast.If):
            transparent = _is_obs_guard(stmt.test) or _mentions_name(
                stmt.test, name
            )
            body_state = self._analyze(
                stmt.body, name, _PathState(state.ended), True, open_node
            )
            else_state = self._analyze(
                stmt.orelse, name, _PathState(state.ended), True, open_node
            )
            if transparent:
                # Guard tracks the open condition: treat the guarded body
                # as the only path that matters for the span.
                state.ended = body_state.ended or else_state.ended
                state.terminated = body_state.terminated and (
                    else_state.terminated if stmt.orelse else False
                )
                return state
            both_end = (body_state.ended or body_state.terminated) and (
                else_state.ended or else_state.terminated
            )
            state.ended = state.ended or (
                body_state.ended and else_state.ended
            )
            if stmt.orelse:
                state.terminated = body_state.terminated and else_state.terminated
            if both_end and stmt.orelse:
                state.ended = True
            return state
        if isinstance(stmt, ast.Try):
            body_state = self._analyze(
                stmt.body, name, _PathState(state.ended), True, open_node
            )
            final_state = (
                self._analyze(
                    stmt.finalbody, name, _PathState(state.ended), True, open_node
                )
                if stmt.finalbody
                else None
            )
            if final_state is not None and final_state.ended:
                state.ended = True
            elif body_state.ended:
                state.ended = True
            return state
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While, ast.With)):
            # Loop/with bodies may close the span; accept any close inside
            # (0-iteration loops are the instrumenting code's concern).
            inner = self._analyze(
                list(getattr(stmt, "body", [])), name, _PathState(state.ended),
                True, open_node,
            )
            state.ended = state.ended or inner.ended
            return state
        return state

    def _stmt_ends(self, stmt: ast.stmt, name: str) -> bool:
        if isinstance(stmt, ast.Expr):
            return _is_end_call_on(stmt.value, name)
        return False


# -- OBS002: no ad-hoc metric-name literals at call sites ------------------

_METRIC_METHODS = ("inc", "observe", "set_gauge")


def _is_registry_receiver(node: ast.AST) -> bool:
    """Names a :class:`MetricsRegistry` handle: ``registry``, ``reg``,
    ``obs.registry``, ``self._registry``...  Deliberately narrow — other
    ``observe``/``inc`` methods (``LifetimeEstimator.observe``,
    ``Dist.observe``) live on receivers named otherwise."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    return name in ("registry", "reg") or name.endswith("registry")


@register
class MetricNameRule(Rule):
    """OBS002 — metric names must come from the declared catalog."""

    id = "OBS002"
    title = "ad-hoc metric-name string literal at a registry call site"
    rationale = (
        "Metric names recorded via MetricsRegistry.inc/observe/set_gauge "
        "must be constants declared through "
        "repro.obs.metrics.declare_metric (which enforces the "
        "subsystem.noun_verb convention and uniqueness).  A literal at "
        "the call site can typo silently — the series just comes out "
        "empty — and leaves the name invisible to the catalog the "
        "health SLOs and exporters are built from.  Per-key names "
        "(peers.size.level.<l>) interpolate onto a declared per_key "
        "prefix constant: f\"{PEERS_SIZE_LEVEL}.{level}\"."
    )
    #: The catalog itself declares the names; its literals are the point.
    exempt_modules = ("repro.obs.metrics",)

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and _is_registry_receiver(node.func.value)
                and node.args
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                ctx.report(
                    self,
                    node,
                    f"metric name {first.value!r} is an ad-hoc literal; "
                    f"declare it via repro.obs.metrics.declare_metric and "
                    f"import the constant",
                )
            elif isinstance(first, ast.JoinedStr) and self._literal_prefixed(
                first
            ):
                ctx.report(
                    self,
                    node,
                    "per-key metric name starts with a literal prefix; "
                    "interpolate a declared per_key constant instead "
                    '(f"{PREFIX}.{key}")',
                )

    @staticmethod
    def _literal_prefixed(joined: ast.JoinedStr) -> bool:
        """An f-string whose *first* piece is literal text (the ad-hoc
        prefix case).  ``f"{CONST}.{key}"`` starts with a FormattedValue
        and passes."""
        for value in joined.values:
            if isinstance(value, ast.Constant):
                return bool(str(value.value))
            return False
        return False
