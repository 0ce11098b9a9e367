"""LP-isolation rules: ISO002 (peer state reached around the
NodeContext) and ISO003 (mutable state shared across LPs).

Both encode one lesson: a node may learn about another node only through
messages.  State reached any other way is a covert channel that couples
two logical processes outside the message fabric.  (Keeping a received
object is the same channel at run time; node state holds rows, and
DetSan's walk over it finds any object kept — see
:mod:`repro.analysis.detsan`.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Union

from repro.analysis.core import FileContext, Rule, register

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


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

#: Methods whose *bound reference* hands out the power to mutate: taking
#: ``_ids.__next__`` as a ``default_factory`` is a ``next(_ids)`` per call.
_MUTATOR_REFS = _MUTATING_METHODS | {"__next__"}


def _outside_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node`` that no function or lambda body holds."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


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
        self._check_mutator_refs(ctx, _outside_functions(ctx.tree), shared)

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

        self._check_mutator_refs(ctx, ast.walk(fn), hot)
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

    def _check_mutator_refs(
        self, ctx: FileContext, nodes: Iterable[ast.AST], hot: Set[str]
    ) -> None:
        """A mutator of a shared object taken as a value, not called: the
        callable mutates it wherever it is later called from."""
        nodes = list(nodes)
        callees = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _MUTATOR_REFS
                and isinstance(node.value, ast.Name)
                and node.value.id in hot
                and id(node) not in callees
            ):
                self._mutation(ctx, node, node.value.id, f"bound .{node.attr} taken")

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
