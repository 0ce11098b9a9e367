"""The finding model: what a lint rule reports.

A :class:`Finding` is one rule violation at one source location.  Its
JSON form (``Finding.to_dict``, whose keys are its fields) is the contract the ``repro lint
--format json`` output follows; ``tests/analysis`` round-trips it.
There is no baseline: the gate is zero findings, and a
``# detlint: ignore[RULE]`` pragma with its reason beside it is the one
escape hatch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line the finding anchors to.
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def describe(self) -> str:
        return f"{self.location()}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)
