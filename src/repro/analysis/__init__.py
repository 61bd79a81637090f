"""repro.analysis — determinism & concurrency invariant checker.

Two enforcement layers over one declared protocol:

* **static** (``python -m repro.analysis src benchmarks``): AST rules
  R1 (determinism), R2 (lock discipline over ``_GUARDED_BY``),
  R3 (worker-payload shipping contract), R4 (export hygiene), R5 (unused
  imports) — see :mod:`repro.analysis.checker`;
* **dynamic** (:mod:`repro.analysis.runtime`): ``DebugLock`` rank-order
  assertions, ``guard_instance`` runtime guarded-attribute enforcement and
  the seeded ``ChaosScheduler`` interleaving randomizer used by the stress
  tests in ``tests/test_analysis.py``.

Both layers read the same ``_GUARDED_BY`` declarations and the same
:data:`repro.analysis.lockorder.LOCK_ORDER` registry, so the contract the
linter checks is exactly the contract the race harness enforces.
"""

from __future__ import annotations

from repro.analysis.checker import ALL_RULES, check_paths, check_source
from repro.analysis.lockorder import LOCK_ORDER, lock_rank
from repro.analysis.report import AnalysisReport, Violation

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "LOCK_ORDER",
    "Violation",
    "check_paths",
    "check_source",
    "lock_rank",
]
