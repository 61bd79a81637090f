"""The checker driver: walk files, run rules, build the report."""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.analysis.determinism import DeterminismRule
from repro.analysis.exports import ExportHygieneRule
from repro.analysis.imports import UnusedImportRule
from repro.analysis.locks import LockDisciplineRule
from repro.analysis.report import AnalysisReport
from repro.analysis.rulebase import Rule, RuleContext
from repro.analysis.shipping import ShippingContractRule

__all__ = ["ALL_RULES", "check_source", "check_paths", "iter_python_files"]

#: default rule set, in report order
ALL_RULES: Sequence[Rule] = (
    DeterminismRule(),
    LockDisciplineRule(),
    ShippingContractRule(),
    ExportHygieneRule(),
    UnusedImportRule(),
)

#: directory names never descended into
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist",
              ".mypy_cache", ".pytest_cache", "node_modules"}


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` walk."""
    seen: Set[str] = set()
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
                collected.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(root, name)
                if full not in seen:
                    seen.add(full)
                    collected.append(full)
    return iter(sorted(collected))


def _in_repro(path: str) -> bool:
    """Whether ``path`` is library code under ``src/repro`` (R1's scope)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for index, part in enumerate(parts[:-1]):
        if part == "src" and parts[index + 1] == "repro":
            return True
    return False


def check_source(source: str, path: str = "<string>", *,
                 in_repro: Optional[bool] = None,
                 rules: Optional[Sequence[Rule]] = None,
                 report: Optional[AnalysisReport] = None) -> AnalysisReport:
    """Run the rule set over one source string.

    ``in_repro`` defaults to path inspection; fixture tests force it so R1
    fires on temp-dir snippets.  Pass ``report`` to accumulate across files.
    """
    if report is None:
        report = AnalysisReport()
    if in_repro is None:
        in_repro = _in_repro(path)
    if rules is None:
        rules = ALL_RULES
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.errors.append(f"{path}: syntax error: {exc.msg} (line {exc.lineno})")
        return report
    ctx = RuleContext(path=path, source=source, tree=tree, in_repro=in_repro)
    report.files_scanned += 1
    for rule in rules:
        report.violations.extend(rule.check(ctx))
    return report


def check_paths(paths: Iterable[str], *,
                rules: Optional[Sequence[Rule]] = None) -> AnalysisReport:
    """Run the checker over files and directory trees."""
    report = AnalysisReport()
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            report.errors.append(f"{path}: unreadable: {exc}")
            continue
        check_source(source, path, rules=rules, report=report)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule, v.code))
    return report
