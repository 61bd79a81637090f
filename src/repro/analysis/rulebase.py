"""Shared rule plumbing: the per-file context and small AST helpers."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.analysis.report import Violation

__all__ = ["RuleContext", "Rule", "dotted_name", "import_aliases", "self_attr"]


@dataclass
class RuleContext:
    """Everything a rule needs to check one parsed source file."""

    path: str
    source: str
    tree: ast.Module
    #: whether this file is library code under ``src/repro`` (R1's scope)
    in_repro: bool = True
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, rule: str, code: str, node: ast.AST,
                  message: str) -> Violation:
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0))
        return Violation(rule=rule, code=code, path=self.path, line=line,
                         col=col, message=message, snippet=self.snippet(line))


class Rule:
    """One named check over a parsed module; subclasses yield violations."""

    #: rule family id ("R1" .. "R5")
    id: str = ""
    #: one-line description for ``--list-rules``
    summary: str = ""

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module/object path they refer to.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy.random import default_rng as rng`` ->
    ``{"rng": "numpy.random.default_rng"}``.  Only top-level and
    function/class-nested imports are collected (all of them — the walk is
    over the whole tree).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``, else ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def resolve(aliases: Dict[str, str], dotted: str) -> str:
    """Rewrite the leading segment of ``dotted`` through the alias table."""
    head, _, rest = dotted.partition(".")
    base = aliases.get(head, head)
    return f"{base}.{rest}" if rest else base
