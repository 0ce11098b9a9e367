"""LP-isolation rules: ISO001 (payload aliasing) and ISO002 (peer state
reached around the NodeContext).

Both rules encode the lesson of the PR 2 chaos findings: with an
in-memory transport, "received" objects are often the *sender's live
objects*, so storing one without copying creates a covert channel that
couples two logical processes outside the message fabric — the
shared-Pointer bug that broke sequential/partitioned equivalence.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Union

from repro.analysis.core import FileContext, Rule, register

#: Parameter names treated as an incoming wire message (taint source is
#: ``<param>.payload``).
MESSAGE_PARAMS = {"msg", "message", "reply", "request"}
#: Parameter names that *are* an already-extracted payload.
PAYLOAD_PARAMS = {"payload"}
#: Annotation names implying a message parameter.
MESSAGE_ANNOTATIONS = {"Message"}

#: ctx-rooted installer methods that must only receive copies.
ALIAS_SINK_METHODS = {
    "add",
    "install",
    "append",
    "extend",
    "insert",
    "update",
    "setdefault",
    "push",
}
#: Installers that store a pointer's fields, never the object
#: (TopNodeList.merge, CrossPartTopList.merge write columnar rows) —
#: passing a received object is safe.
COPYING_SINK_METHODS = {"merge"}

#: Calls that produce an independent object from their argument.
_SANITIZING_CALLS = {"copy", "deepcopy", "__deepcopy__", "replace", "fresh_copy"}
#: Shallow containers: a new list/tuple still aliases its elements.
_SHALLOW_WRAPPERS = {"list", "tuple", "reversed", "sorted", "iter"}

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _is_sanitizing_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _SANITIZING_CALLS:
        return True
    if isinstance(func, ast.Name):
        if func.id in _SANITIZING_CALLS:
            return True
        # Constructor call (Pointer(...), EventRecord(...)): builds a
        # fresh object field-by-field.
        if func.id[:1].isupper():
            return True
    if isinstance(func, ast.Attribute) and func.attr[:1].isupper():
        return True
    return False


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_ctx_rooted(node: ast.AST) -> bool:
    """Is this expression rooted at long-lived node state (``ctx.*``,
    ``self.ctx.*``, or ``self.*``)?"""
    root = _root_name(node)
    if root == "ctx":
        return True
    if root == "self":
        return True
    return False


class _PayloadTaint(ast.NodeVisitor):
    """Per-function forward taint pass (no fixpoint: one top-to-bottom
    sweep, which matches how handler code reads)."""

    def __init__(self, rule: "PayloadAliasRule", ctx: FileContext, fn: FuncDef):
        self.rule = rule
        self.ctx = ctx
        self.fn = fn
        self.msg_params: Set[str] = set()
        self.tainted: Set[str] = set()
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            ann = _annotation_name(arg.annotation)
            if arg.arg in MESSAGE_PARAMS or ann in MESSAGE_ANNOTATIONS:
                self.msg_params.add(arg.arg)
            elif arg.arg in PAYLOAD_PARAMS:
                self.tainted.add(arg.arg)

    # -- taint queries -----------------------------------------------------

    def is_tainted(self, node: ast.AST) -> bool:
        """Does evaluating ``node`` yield an object aliased with the
        incoming payload?  Attribute reads are deliberately *not*
        tainted (scalar field reads are the common safe case); object
        identity flows through names, subscripts, iteration, and
        shallow container wrappers only."""
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            return self._is_payload_attr(node)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self.is_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, ast.BinOp):
            return self.is_tainted(node.left) or self.is_tainted(node.right)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self._comp_tainted(node)
        if isinstance(node, ast.Call):
            if _is_sanitizing_call(node):
                return False
            name = node.func.id if isinstance(node.func, ast.Name) else None
            if name in _SHALLOW_WRAPPERS and node.args:
                return self.is_tainted(node.args[0])
            return False
        return False

    def _is_payload_attr(self, node: ast.Attribute) -> bool:
        """``msg.payload`` (or deeper: ``msg.payload[0]`` handled via
        Subscript) on a message parameter."""
        return (
            node.attr == "payload"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.msg_params
        )

    def _comp_tainted(self, node: Union[ast.ListComp, ast.GeneratorExp]) -> bool:
        saved = set(self.tainted)
        try:
            for gen in node.generators:
                if self.is_tainted(gen.iter):
                    for name in _target_names(gen.target):
                        self.tainted.add(name)
            return self.is_tainted(node.elt)
        finally:
            self.tainted = saved

    # -- statement walk ----------------------------------------------------

    def run(self) -> None:
        self._walk(self.fn.body)

    def _walk(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt.targets, stmt.value, stmt)
            return
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign([stmt.target], stmt.value, stmt)
            return
        elif isinstance(stmt, ast.AugAssign):
            if _is_ctx_rooted(stmt.target) and self.is_tainted(stmt.value):
                self._report(stmt, "augmented-assigned")
            self._check_calls(stmt.value)
            return
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if self.is_tainted(stmt.iter):
                for name in _target_names(stmt.target):
                    self.tainted.add(name)
            self._check_calls(stmt.iter)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        elif isinstance(stmt, (ast.If, ast.While)):
            self._check_calls(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
            return
        elif isinstance(stmt, ast.With):
            self._walk(stmt.body)
            return
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested handlers inherit message params via closure.
            nested = _PayloadTaint(self.rule, self.ctx, stmt)
            nested.msg_params |= self.msg_params
            nested.tainted |= self.tainted
            nested.run()
            return
        # Any expression statement (or the RHS above): check call sinks.
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                self._call_sink(sub)

    def _assign(
        self, targets: List[ast.expr], value: ast.expr, stmt: ast.stmt
    ) -> None:
        tainted_value = self.is_tainted(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if tainted_value:
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # a, b = msg.payload: every bound name aliases payload parts.
                for name in _target_names(target):
                    if tainted_value:
                        self.tainted.add(name)
                    else:
                        self.tainted.discard(name)
            elif _is_ctx_rooted(target) and tainted_value:
                self._report(stmt, "assigned")
        self._check_calls(value)

    def _check_calls(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call_sink(sub)

    def _call_sink(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in COPYING_SINK_METHODS:
            return
        if func.attr not in ALIAS_SINK_METHODS:
            return
        if not _is_ctx_rooted(func.value):
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if self.is_tainted(arg):
                self._report(node, f"passed to .{func.attr}()")
                return

    def _report(self, node: ast.AST, how: str) -> None:
        self.ctx.report(
            self.rule,
            node,
            f"incoming payload object {how} into long-lived node state "
            f"without a copy — with an in-memory transport this aliases "
            f"the sender's live object across the LP boundary; use "
            f".copy()/dataclasses.replace()",
        )


def _target_names(target: ast.AST) -> List[str]:
    out: List[str] = []
    for sub in ast.walk(target):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
    return out


@register
class PayloadAliasRule(Rule):
    """ISO001 — message payloads are copied, never aliased, into state."""

    id = "ISO001"
    title = "payload object aliased into node state"
    rationale = (
        "The PR 2 shared-Pointer bug: a Pointer arriving in a message "
        "payload was installed directly into a peer list, so two nodes "
        "(two logical processes) mutated one object — a covert channel "
        "invisible to the message fabric that broke "
        "sequential/partitioned equivalence.  Received objects must be "
        "copied before they outlive the handler."
    )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                taint = _PayloadTaint(self, ctx, node)
                if taint.msg_params or taint.tainted:
                    taint.run()

    def check_project(self, project) -> None:
        # Re-run the taint with call-graph edges: payloads followed
        # through helper calls, return values, and handler handoffs.
        from repro.analysis.project import run_payload_taint

        run_payload_taint(self, project)


#: Class-name suffixes that mark per-node protocol services.
SERVICE_CLASS_SUFFIXES = ("Service", "Detector")


@register
class ServiceBoundaryRule(Rule):
    """ISO002 — services reach peer state only through NodeContext."""

    id = "ISO002"
    title = "service touches another node's state directly"
    rationale = (
        "A service owns exactly one NodeContext; reading another node's "
        "context (peer.ctx...) or indexing the network's node table "
        "(net.nodes[addr]...) bypasses the message fabric, so the "
        "information would not exist on a real network and cannot be "
        "replayed by the partitioned engine."
    )

    def check(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(SERVICE_CLASS_SUFFIXES):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "ctx":
                    if not (
                        isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        ctx.report(
                            self,
                            sub,
                            f"service class {node.name} reaches another "
                            f"object's .ctx — peer state must arrive via "
                            f"messages through the NodeContext",
                        )
                elif isinstance(sub, ast.Subscript):
                    base = sub.value
                    attr = (
                        base.attr
                        if isinstance(base, ast.Attribute)
                        else base.id
                        if isinstance(base, ast.Name)
                        else None
                    )
                    if attr == "nodes":
                        ctx.report(
                            self,
                            sub,
                            f"service class {node.name} indexes the "
                            f"network node table — peer state must "
                            f"arrive via messages through the "
                            f"NodeContext",
                        )


#: Constructor names that build mutable containers.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray", "defaultdict", "Counter",
    "deque", "OrderedDict", "ChainMap", "count",
}
#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = {
    "add", "append", "appendleft", "extend", "extendleft", "insert",
    "update", "setdefault", "push", "pop", "popleft", "popitem",
    "remove", "discard", "clear", "sort", "reverse",
}


def _is_mutable_container(node: Optional[ast.AST]) -> bool:
    """Does this expression build a mutable container (or an
    ``itertools.count`` style stateful iterator)?"""
    if isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _binding_names(target: ast.AST) -> List[str]:
    """Names a *binding* target introduces.  ``x = ...`` and
    ``a, b = ...`` bind; ``x[k] = ...`` and ``x.f = ...`` mutate an
    existing object and bind nothing."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in target.elts:
            out.extend(_binding_names(elt))
        return out
    return []


def _locally_bound_names(fn: FuncDef) -> Set[str]:
    """Names a function binds itself (params, assignments, loop targets,
    with-as) — coarse, no nested-scope split; used only to avoid false
    global-mutation reports when a local shadows a module global."""
    bound: Set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global: Set[str] = set()
    for sub in ast.walk(fn):
        if isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared_global.update(sub.names)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                bound.update(_binding_names(target))
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(sub.target, ast.Name):
                bound.add(sub.target.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            bound.update(_binding_names(sub.target))
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    bound.update(_binding_names(item.optional_vars))
    return bound - declared_global


@register
class CrossLPStateRule(Rule):
    """ISO003 — no mutable state statically shared across LP partitions."""

    id = "ISO003"
    title = "mutable module/class state reachable from multiple LPs"
    rationale = (
        "Every node is a logical process; the partitioned engine may "
        "run two of them in different event streams.  A module-level "
        "dict/list/set (or a class-body mutable default shared by all "
        "service instances) that protocol code mutates is reachable "
        "from *every* LP at once — a covert channel the message fabric "
        "cannot see, order, or replay.  Move the state into NodeContext, "
        "hand each LP a sanitized copy, or suppress with a comment "
        "explaining why sharing cannot affect protocol decisions."
    )
    #: Host-side code that runs *above* the simulator, never inside an
    #: LP: the analyzer itself (rule registry) and the experiment
    #: drivers (run caches for figure generation).
    exempt_modules = ("repro.analysis", "repro.experiments")

    def check(self, ctx: FileContext) -> None:
        shared = self._module_level_containers(ctx)
        for node in ast.walk(ctx.tree):
            # Lambdas count as function scope too (default_factory=...).
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                self._check_function(ctx, node, shared)
            elif isinstance(node, ast.ClassDef):
                self._check_class_defaults(ctx, node)

    @staticmethod
    def _module_level_containers(ctx: FileContext) -> Set[str]:
        names: Set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and _is_mutable_container(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and _is_mutable_container(stmt.value)
            ):
                names.add(stmt.target.id)
        return names

    def _check_function(
        self, ctx: FileContext, fn: FuncDef, shared: Set[str]
    ) -> None:
        if not shared:
            return
        local = _locally_bound_names(fn)
        hot = shared - local

        def _is_hot(node: ast.AST) -> bool:
            return isinstance(node, ast.Name) and node.id in hot

        for sub in ast.walk(fn):
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and _is_hot(func.value)
                ):
                    self._mutation(ctx, sub, func.value.id, f".{func.attr}()")
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "next"
                    and sub.args
                    and _is_hot(sub.args[0])
                ):
                    self._mutation(
                        ctx, sub, sub.args[0].id, "next() on a shared iterator"
                    )
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and _is_hot(
                        target.value
                    ):
                        self._mutation(
                            ctx, sub, target.value.id, "subscript assignment"
                        )
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript) and _is_hot(
                        target.value
                    ):
                        self._mutation(ctx, sub, target.value.id, "del")

    def _mutation(
        self, ctx: FileContext, node: ast.AST, name: str, how: str
    ) -> None:
        ctx.report(
            self,
            node,
            f"module-level mutable object {name!r} mutated from function "
            f"scope ({how}) — it is reachable from every LP partition at "
            f"once; move it into NodeContext or give each LP a copy",
        )

    def _check_class_defaults(self, ctx: FileContext, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            value = None
            target = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and _is_mutable_container(value)
            ):
                ctx.report(
                    self,
                    stmt,
                    f"class-body mutable default {cls.name}.{target.id} is "
                    f"shared by every instance — services on different LPs "
                    f"would mutate one object; initialize it per-instance "
                    f"in __init__",
                )
