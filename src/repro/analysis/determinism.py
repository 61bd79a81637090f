"""R1 — determinism: no hidden randomness or ambient-order state in library code.

Everything this repository claims — byte-identical fixed-seed samples across
serial/vectorized/threads/process backends, fused or unfused, cached or
uncached, single-node or cluster — rests on randomness flowing *only* through
explicitly seeded :class:`numpy.random.Generator` objects threaded through
call signatures (``repro/utils/rng.py``).  R1 statically forbids the ways
that invariant quietly dies inside ``src/repro``:

* ``np.random.<fn>()`` **module-level RNG state** (``np.random.seed``,
  ``np.random.rand``, ...): global state shared across threads and invisible
  to the substream derivation.  Type references (``np.random.Generator``,
  ``np.random.SeedSequence`` and the bit generators) are fine — they carry no
  state.
* **unseeded** ``default_rng()``: fresh OS entropy per call, unreproducible
  by construction.  ``default_rng(seed)`` with any argument is the blessed
  spelling.
* the stdlib ``random`` module: its module-level functions are global-state
  RNG; even ``random.Random(x)`` seeded instances hash some types
  platform-dependently.  Seeded ``random.Random(seed)`` *instances* are
  allowed (the chaos harness uses one); bare module functions are not.
* **time-derived values**: ``time.time()`` / ``time.time_ns()`` /
  ``datetime.now()`` / ``date.today()`` produce run-dependent values that
  end up in seeds, cache keys, or tie-breaks.  Monotonic *duration* clocks
  (``time.monotonic``, ``time.perf_counter``) are explicitly fine — they
  feed metrics and TTLs, never selection.
* **set iteration feeding selection paths**: ``for x in {a, b}`` (and
  comprehensions over set displays / ``set(...)`` calls) iterate in
  hash-seed order.  Iterate a sorted or insertion-ordered container instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.analysis.report import Violation
from repro.analysis.rulebase import Rule, RuleContext, dotted_name, import_aliases, resolve

__all__ = ["DeterminismRule"]

#: ``numpy.random`` attributes that are types/constructors, not module state
_SAFE_NP_RANDOM = {
    "Generator", "BitGenerator", "SeedSequence", "RandomState",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "default_rng",  # call sites are checked separately for seeding
}

#: banned wall-clock value sources (monotonic duration clocks stay legal)
_TIME_BANNED = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
}


class DeterminismRule(Rule):
    id = "R1"
    summary = ("determinism: no module-level RNG state, unseeded default_rng, "
               "stdlib random functions, wall-clock values, or set iteration")

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        if not ctx.in_repro:
            return
        aliases = import_aliases(ctx.tree)
        call_funcs = {id(node.func) for node in ast.walk(ctx.tree)
                      if isinstance(node, ast.Call)}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, aliases)
            elif isinstance(node, ast.Attribute) and id(node) not in call_funcs:
                yield from self._check_attribute(ctx, node, aliases)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                violation = self._check_set_iteration(ctx, iterable, aliases)
                if violation is not None:
                    yield violation

    # ------------------------------------------------------------------ #
    def _check_import_from(self, ctx: RuleContext,
                           node: ast.ImportFrom) -> Iterator[Violation]:
        if node.module == "random":
            banned = [item.name for item in node.names if item.name != "Random"]
            if banned:
                yield ctx.violation(
                    self.id, "stdlib-random", node,
                    f"import of stdlib random function(s) {banned}: module-level "
                    "RNG state; thread a seeded np.random.Generator instead")
        elif node.module == "numpy.random":
            banned = [item.name for item in node.names
                      if item.name not in _SAFE_NP_RANDOM]
            if banned:
                yield ctx.violation(
                    self.id, "np-random-module-state", node,
                    f"import of numpy.random module-state function(s) {banned}")

    def _check_call(self, ctx: RuleContext, node: ast.Call,
                    aliases: Dict[str, str]) -> Iterator[Violation]:
        name = dotted_name(node.func)
        if name is None:
            return
        resolved = resolve(aliases, name)
        if resolved in ("numpy.random.default_rng", "default_rng"):
            if not node.args and not node.keywords:
                yield ctx.violation(
                    self.id, "unseeded-default-rng", node,
                    "default_rng() without a seed draws OS entropy: pass an "
                    "explicit seed/SeedSequence (see repro.utils.rng)")
            return
        if resolved in _TIME_BANNED:
            yield ctx.violation(
                self.id, "wall-clock-value", node,
                f"{resolved}() is a run-dependent wall-clock value; use "
                "time.monotonic()/time.perf_counter() for durations, or an "
                "injectable clock for TTLs")
            return
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) >= 2:
            if parts[1] == "Random":
                if not node.args and not node.keywords:
                    yield ctx.violation(
                        self.id, "stdlib-random", node,
                        "random.Random() without a seed is unreproducible; "
                        "pass an explicit seed")
            else:
                yield ctx.violation(
                    self.id, "stdlib-random", node,
                    f"stdlib {resolved}() uses global RNG state; use a seeded "
                    "np.random.Generator")
            return
        if parts[0] == "numpy" and len(parts) >= 3 and parts[1] == "random":
            if parts[2] not in _SAFE_NP_RANDOM:
                yield ctx.violation(
                    self.id, "np-random-module-state", node,
                    f"{resolved}() mutates/reads numpy's module-level RNG "
                    "state; thread a seeded Generator instead")

    def _check_attribute(self, ctx: RuleContext, node: ast.Attribute,
                         aliases: Dict[str, str]) -> Iterator[Violation]:
        """Non-call references: ``np.random.seed`` passed around, etc."""
        name = dotted_name(node)
        if name is None:
            return
        resolved = resolve(aliases, name)
        parts = resolved.split(".")
        if (parts[0] == "numpy" and len(parts) == 3 and parts[1] == "random"
                and parts[2] not in _SAFE_NP_RANDOM):
            yield ctx.violation(
                self.id, "np-random-module-state", node,
                f"reference to numpy module-level RNG state {resolved}")

    def _check_set_iteration(self, ctx: RuleContext, iterable: ast.AST,
                             aliases: Dict[str, str]) -> Optional[Violation]:
        direct = self._is_set_expr(iterable, aliases)
        if direct:
            return ctx.violation(
                self.id, "set-iteration-order", iterable,
                "iteration over a set: order follows the hash seed, so any "
                "selection derived from it is unreproducible; iterate "
                "sorted(...) or an ordered container")
        return None

    def _is_set_expr(self, node: ast.AST, aliases: Dict[str, str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and resolve(aliases, name) == "set":
                return True
            # set ops that return sets: a.union(b) etc. are left to review;
            # only the unambiguous constructor is flagged statically
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                                                ast.Sub, ast.BitXor)):
            # ``{a} | other`` style set algebra — flag when either side is a set
            return (self._is_set_expr(node.left, aliases)
                    or self._is_set_expr(node.right, aliases))
        return False
