"""R5 — unused imports: every module-level import is read in its module.

An import that nothing reads still runs on every ``import repro``, and it
tells a reader the module depends on something it does not.  The rule
collects the names bound by the module body's ``import`` and ``from ...
import`` statements and flags each one that the module never reads: no
``Name`` node anywhere in the module, no string annotation and no
``__all__`` entry mentions it.

Exempt: ``__init__.py`` files, whose imports are the package's re-exports;
``from __future__`` directives; and imports nested in ``if`` / ``try``
blocks (``TYPE_CHECKING`` guards, optional dependencies).
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Set, Union

from repro.analysis.report import Violation
from repro.analysis.rulebase import Rule, RuleContext

__all__ = ["UnusedImportRule"]


class UnusedImportRule(Rule):
    id = "R5"
    summary = ("unused imports: every module-level import is read in its "
               "module (__init__.py re-exports exempt)")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if os.path.basename(ctx.path) == "__init__.py":
            return
        read = _names_read(ctx.tree)
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in read:
                    yield ctx.violation(
                        self.id, "unused-import", stmt,
                        f"{bound!r} is imported and never read in this module: "
                        "delete the import")


def _names_read(tree: ast.Module) -> Set[str]:
    """Every name the module mentions: ``Name`` nodes, the names inside
    string annotations, and the strings listed in ``__all__``."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = _annotation_of(node)
        if annotation is not None:
            read.update(_names_in_strings(annotation))
        if isinstance(node, (ast.Assign, ast.AugAssign)) and _binds_all(node):
            read.update(_string_constants(node.value))
    return read


def _binds_all(node: Union[ast.Assign, ast.AugAssign]) -> bool:
    targets: List[ast.expr] = (list(node.targets) if isinstance(node, ast.Assign)
                               else [node.target])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _annotation_of(node: ast.AST) -> Optional[ast.expr]:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return None


def _names_in_strings(annotation: ast.expr) -> Set[str]:
    """Names inside the string parts of an annotation (``Optional["Foo"]``)."""
    found: Set[str] = set()
    for text in _string_constants(annotation):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        found.update(node.id for node in ast.walk(parsed) if isinstance(node, ast.Name))
    return found


def _string_constants(expr: ast.AST) -> Set[str]:
    return {node.value for node in ast.walk(expr)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
