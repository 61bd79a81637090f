"""Violation records and the JSON report the checker emits.

A :class:`Violation` pins one finding to a (rule, file, line, column) with a
human-readable message; :class:`AnalysisReport` aggregates every finding of
one run together with scan metadata so CI can upload a machine-readable
artifact (``python -m repro.analysis ... --json report.json``) next to the
benchmark trajectory files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Violation", "AnalysisReport"]


@dataclass(frozen=True)
class Violation:
    """One finding: a rule hit at a specific source location.

    ``rule`` is the coarse rule family (``"R1"`` .. ``"R4"``); ``code`` the
    specific check within it (e.g. ``"unseeded-default-rng"``).
    """

    rule: str
    code: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule}[{self.code}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class AnalysisReport:
    """Everything one checker run found, JSON-serializable for CI artifacts."""

    violations: List[Violation] = field(default_factory=list)
    files_scanned: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "violations_by_rule": self.by_rule(),
            "violations": [v.as_dict() for v in self.violations],
            "errors": list(self.errors),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable multi-line summary (one line per violation)."""
        lines = [violation.render() for violation in self.violations]
        lines.extend(f"error: {message}" for message in self.errors)
        counts = self.by_rule()
        summary = ", ".join(f"{rule}={count}" for rule, count in sorted(counts.items()))
        lines.append(
            f"{len(self.violations)} violation(s) in {self.files_scanned} file(s)"
            + (f" [{summary}]" if summary else "")
        )
        return "\n".join(lines)
