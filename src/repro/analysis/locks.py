"""R2 — lock discipline: guarded attributes are only touched under their lock.

Concurrency-bearing classes declare their protocol explicitly::

    class FactorizationCache:
        _GUARDED_BY = {"_lock": ("_entries",)}

and R2 flags any method body that reads or writes ``self._entries`` (etc.)
outside a ``with self._lock:`` block.  The declaration is the contract; the
checker (statically) and :func:`repro.analysis.runtime.guard_instance`
(dynamically, under the chaos harness) both enforce it, so the two layers can
never drift apart.

Conventions understood by the checker:

* ``__init__`` / ``__new__`` / ``__del__`` are exempt — no other thread can
  hold a reference yet (or anymore).
* a method whose name ends in ``_locked`` asserts "caller already holds the
  lock" (the codebase's existing idiom, e.g. ``_sweep_locked``); its body is
  treated as lock-held throughout.  Same for names starting ``_unsafe_``.
* ``_GUARDED_BY`` merges down same-module inheritance chains
  (``Counter(_Instrument)`` inherits the instrument's declaration).
* nested ``lambda``/``def`` bodies are skipped statically — closures that
  escape the lock scope are the runtime harness's job.
* ``with self._lock:`` and ``with self._lock, other:`` both count; so does
  an explicit ``self._lock.acquire()`` ... ``release()`` pair **within one
  straight-line suite** (tracked conservatively: acquire marks held until a
  release at the same nesting depth).

R2 also emits ``lock-order`` findings: inside one class, nested ``with``
acquisitions of *declared* locks must follow the global rank registry in
:mod:`repro.analysis.lockorder` (cross-class cycles are caught there and at
runtime by ``DebugLock``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.lockorder import lock_rank
from repro.analysis.report import Violation
from repro.analysis.rulebase import Rule, RuleContext, self_attr

__all__ = ["LockDisciplineRule", "guarded_by_of_class"]

_EXEMPT_METHODS = {"__init__", "__new__", "__del__", "__getstate__", "__setstate__",
                   "__reduce__", "__repr__"}

#: either flavor of method definition (bodies are walked identically)
_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def guarded_by_of_class(cls: ast.ClassDef,
                        module_classes: Dict[str, ast.ClassDef]) -> Dict[str, Tuple[str, ...]]:
    """The effective ``_GUARDED_BY`` of ``cls``, merged over same-module bases."""
    merged: Dict[str, Tuple[str, ...]] = {}
    # bases first so the subclass's own declaration wins per-lock
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id in module_classes:
            base_cls = module_classes[base.id]
            if base_cls is not cls:
                merged.update(guarded_by_of_class(base_cls, module_classes))
    merged.update(_own_guarded_by(cls))
    return merged


def _own_guarded_by(cls: ast.ClassDef) -> Dict[str, Tuple[str, ...]]:
    for stmt in cls.body:
        target_name: Optional[str] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                target_name = target.id
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target_name = stmt.target.id
            value = stmt.value
        if target_name != "_GUARDED_BY" or not isinstance(value, ast.Dict):
            continue
        declared: Dict[str, Tuple[str, ...]] = {}
        for key, val in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            attrs: List[str] = []
            if isinstance(val, (ast.Tuple, ast.List, ast.Set)):
                for element in val.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        attrs.append(element.value)
            declared[key.value] = tuple(attrs)
        return declared
    return {}


class LockDisciplineRule(Rule):
    id = "R2"
    summary = ("lock discipline: _GUARDED_BY attributes accessed only under "
               "`with self.<lock>`; intra-method acquisitions follow the "
               "global lock-order registry")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        module_classes = {node.name: node for node in ctx.tree.body
                          if isinstance(node, ast.ClassDef)}
        for cls in module_classes.values():
            guarded = guarded_by_of_class(cls, module_classes)
            if not guarded:
                continue
            attr_to_lock: Dict[str, str] = {}
            for lock, attrs in guarded.items():
                for attr in attrs:
                    attr_to_lock[attr] = lock
            for method in self._methods(cls):
                if method.name in _EXEMPT_METHODS:
                    continue
                held_at_entry = set(guarded)
                if not (method.name.endswith("_locked")
                        or method.name.startswith("_unsafe_")):
                    held_at_entry = set()
                walker = _MethodWalker(ctx, self.id, cls.name, method,
                                       attr_to_lock, set(guarded), held_at_entry)
                yield from walker.run()

    @staticmethod
    def _methods(cls: ast.ClassDef) -> Iterator[_FuncDef]:
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt


class _MethodWalker:
    """Single-method traversal tracking which declared locks are held."""

    def __init__(self, ctx: RuleContext, rule_id: str, class_name: str,
                 method: _FuncDef, attr_to_lock: Dict[str, str],
                 lock_names: Set[str], held_at_entry: Set[str]) -> None:
        self.ctx = ctx
        self.rule_id = rule_id
        self.class_name = class_name
        self.method = method
        self.attr_to_lock = attr_to_lock
        self.lock_names = lock_names
        self.violations: List[Violation] = []
        self.held: List[str] = sorted(held_at_entry)

    def run(self) -> Iterator[Violation]:
        for stmt in self.method.body:
            self._visit_stmt(stmt)
        return iter(self.violations)

    # -- statements --------------------------------------------------- #
    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes: runtime harness territory
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in stmt.items:
                lock = self._lock_expr(item.context_expr)
                if lock is not None:
                    self._check_order(lock, item.context_expr)
                    if lock not in self.held:
                        self.held.append(lock)
                        acquired.append(lock)
                else:
                    self._visit_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._visit_expr(item.optional_vars)
            for inner in stmt.body:
                self._visit_stmt(inner)
            for lock in acquired:
                self.held.remove(lock)
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            handled = self._acquire_release(stmt.value)
            if handled:
                return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(child)
            elif isinstance(child, (ast.excepthandler,)):
                for grand in ast.iter_child_nodes(child):
                    if isinstance(grand, ast.stmt):
                        self._visit_stmt(grand)
                    elif isinstance(grand, ast.expr):
                        self._visit_expr(grand)

    def _acquire_release(self, call: ast.Call) -> bool:
        """Model bare ``self._lock.acquire()`` / ``.release()`` statements."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        lock = self._lock_expr(func.value)
        if lock is None:
            return False
        if func.attr == "acquire":
            self._check_order(lock, call)
            if lock not in self.held:
                self.held.append(lock)
            return True
        if func.attr == "release":
            if lock in self.held:
                self.held.remove(lock)
            return True
        return False

    # -- expressions --------------------------------------------------- #
    def _visit_expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Lambda):
            return
        attr = self_attr(expr)
        if attr is not None and attr in self.attr_to_lock:
            lock = self.attr_to_lock[attr]
            if lock not in self.held:
                self.violations.append(self.ctx.violation(
                    self.rule_id, "unlocked-access", expr,
                    f"{self.class_name}.{self.method.name} touches guarded "
                    f"attribute self.{attr} without holding self.{lock} "
                    f"(declared in _GUARDED_BY)"))
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter)
                for cond in child.ifs:
                    self._visit_expr(cond)

    # -- helpers ------------------------------------------------------- #
    def _lock_expr(self, expr: ast.expr) -> Optional[str]:
        """``self.<lock>`` for a declared lock (optionally ``.acquire()`` etc.)."""
        attr = self_attr(expr)
        if attr is not None and attr in self.lock_names:
            return attr
        return None

    def _check_order(self, lock: str, node: ast.AST) -> None:
        """New acquisition must rank after every lock already held."""
        new_rank = lock_rank(self.class_name, lock)
        if new_rank is None:
            return
        for held in self.held:
            held_rank = lock_rank(self.class_name, held)
            if held_rank is not None and held_rank > new_rank:
                self.violations.append(self.ctx.violation(
                    self.rule_id, "lock-order", node,
                    f"{self.class_name}.{self.method.name} acquires "
                    f"self.{lock} (rank {new_rank}) while holding self.{held} "
                    f"(rank {held_rank}); registry order in "
                    f"repro.analysis.lockorder forbids this inversion"))
