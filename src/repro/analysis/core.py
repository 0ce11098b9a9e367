"""detlint's engine: file contexts, the rule registry, and the runner.

The analyzer is a plain ``ast`` walk — no imports of the analyzed code,
no runtime dependencies — so it can lint a file that would not even
import.  Each :class:`Rule` subclass registers itself under a stable id
(``DET001`` ...) via :func:`register`; :func:`run_lint` parses each file
once into a shared :class:`FileContext` and hands it to every
applicable rule.

Suppression: a ``# detlint: ignore[RULE1,RULE2]`` comment suppresses
those rules on its own line (put it on the first line of a multi-line
statement), and says beside it why the violation is intended — e.g. the
one process-wide ``msg_id`` counter.  ``# detlint: skip-file`` anywhere
in the first ten lines skips the whole file.  There is no baseline of
grandfathered findings: the gate is zero findings.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from repro.analysis.findings import Finding

_IGNORE_RE = re.compile(r"#\s*detlint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*detlint:\s*skip-file")


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number (1-based) -> set of suppressed rule ids."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), 1):
        match = _IGNORE_RE.search(line)
        if match is not None:
            rules = {r.strip().upper() for r in match.group(1).split(",")}
            rules.discard("")
            suppressed.setdefault(lineno, set()).update(rules)
    return suppressed


def wants_skip_file(source: str) -> bool:
    head = source.splitlines()[:10]
    return any(_SKIP_FILE_RE.search(line) for line in head)


class FileContext:
    """Everything the rules need about one parsed source file."""

    def __init__(self, path: str, source: str, rel_path: Optional[str] = None):
        self.path = path
        #: Repository-relative, ``/``-separated path — the stable form
        #: used in findings and exemption matching.
        self.rel_path = (rel_path if rel_path is not None else path).replace(
            os.sep, "/"
        )
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.suppressed = parse_suppressions(source)
        self.findings: List[Finding] = []

    @property
    def module(self) -> str:
        """Dotted module guess from the relative path (``src/`` stripped),
        used by per-rule exemptions like "only repro.sim.rng may seed"."""
        rel = self.rel_path
        if rel.startswith("src/"):
            rel = rel[len("src/"):]
        rel = rel[:-3] if rel.endswith(".py") else rel
        module = rel.replace("/", ".")
        return module[:-9] if module.endswith(".__init__") else module

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_suppressed(self, lineno: int, rule: str) -> bool:
        return rule.upper() in self.suppressed.get(lineno, set())

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.is_suppressed(lineno, rule.id):
            return
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.rel_path,
                line=lineno,
                col=col,
                message=message,
                snippet=self.snippet(lineno),
            )
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id`/:attr:`title`/:attr:`rationale`, optionally
    :attr:`exempt_modules` (dotted prefixes the rule never applies to),
    and implement :meth:`check`.
    """

    id: str = ""
    title: str = ""
    #: Which bug class the rule exists to prevent (shown by ``--explain``).
    rationale: str = ""
    #: Dotted module prefixes the rule does not apply to.
    exempt_modules: Sequence[str] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        module = ctx.module
        for prefix in self.exempt_modules:
            if module == prefix or module.startswith(prefix + "."):
                return False
        # Benchmarks and tests measure and provoke; the contracts bind
        # the simulator itself.
        top = ctx.rel_path.split("/", 1)[0]
        return top not in ("benchmarks", "tests")

    def check(self, ctx: FileContext) -> None:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry by id."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    import repro.analysis.rules  # noqa: F401  (registers on import)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_catalog() -> List[Rule]:
    """Alias of :func:`all_rules` for documentation/CLI listings."""
    return all_rules()


def iter_python_files(paths: Iterable[str], root: Optional[str] = None) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.add(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            out.add(path)
    return sorted(out)


def _rel_path(path: str, root: Optional[str]) -> str:
    base = root if root is not None else os.getcwd()
    try:
        rel = os.path.relpath(os.path.abspath(path), os.path.abspath(base))
    except ValueError:  # pragma: no cover - different drive on Windows
        return path
    return path if rel.startswith("..") else rel


def _check_contexts(
    contexts: Sequence[FileContext], rules: Sequence[Rule]
) -> List[Finding]:
    """Run the rules over already-parsed file contexts; collect
    deduplicated findings."""
    for ctx in contexts:
        for rule in rules:
            if rule.applies_to(ctx):
                rule.check(ctx)
    findings: List[Finding] = []
    for ctx in contexts:
        # Findings are frozen/hashable: drop exact duplicates (a rule may
        # legitimately revisit one node from two walks).
        findings.extend(dict.fromkeys(ctx.findings))
    return sorted(findings, key=Finding.sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    rel_path: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string (the test-fixture entry point)."""
    active = list(rules) if rules is not None else all_rules()
    if wants_skip_file(source):
        return []
    ctx = FileContext(path, source, rel_path=rel_path)
    return _check_contexts([ctx], active)


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Lint files/directories; returns all findings, sorted and
    suppression-filtered."""
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    contexts: List[FileContext] = []
    for path in iter_python_files(paths, root=root):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        if wants_skip_file(source):
            continue
        try:
            contexts.append(
                FileContext(path, source, rel_path=_rel_path(path, root))
            )
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="PARSE",
                    path=_rel_path(path, root).replace(os.sep, "/"),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    snippet="",
                )
            )
    findings.extend(_check_contexts(contexts, active))
    return sorted(findings, key=Finding.sort_key)
