"""The global lock-order registry: one canonical acquisition order.

Deadlock freedom across the stack is guaranteed by a single total order —
any thread may only acquire a lock whose rank is *strictly greater* than
every lock it already holds.  The order below follows the call topology
discovered in the codebase (outermost orchestration first, innermost leaf
state last):

* ``LocalCluster`` drives node lifecycle and may call into nodes/clients;
* ``ClusterClient`` routes to ``ShardNode`` sessions;
* ``RoundScheduler.drain`` executes batches whose oracles consult the
  ``KernelRegistry`` which invalidates the ``FactorizationCache`` which
  touches per-kernel ``KernelFactorization`` state;
* observability locks (metrics/trace/SLO/flight) are leaves — nothing may
  be acquired while holding them, so they get the highest ranks.

Both enforcement layers read this table: the static R2 ``lock-order`` check
(:mod:`repro.analysis.locks`) for nested acquisitions visible in one method,
and the runtime :class:`repro.analysis.runtime.DebugLock` for cross-object
chains the AST cannot see.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["LOCK_ORDER", "lock_rank"]

#: canonical acquisition order, outermost first: ``(class_name, lock_attr)``
LOCK_ORDER: Tuple[Tuple[str, str], ...] = (
    ("LocalCluster", "_lock"),
    ("ClusterClient", "_lock"),
    ("ClusterSession", "_lock"),
    ("ShardNode", "_lock"),
    ("Connection", "_lock"),
    ("RoundScheduler", "_lock"),
    ("SamplerSession", "_lock"),
    ("KernelRegistry", "_lock"),
    ("FactorizationCache", "_lock"),
    ("KernelFactorization", "_lock"),
    ("SharedArrayStore", "_lock"),
    ("RoundPlanner", "_lock"),
    ("MetricsRegistry", "_lock"),
    ("_Instrument", "_lock"),
    ("Counter", "_lock"),
    ("Histogram", "_lock"),
    ("Tracer", "_lock"),
    ("SLOTracker", "_lock"),
    ("FlightRecorder", "_lock"),
    ("_IdAllocator", "_lock"),
)

_RANK: Dict[Tuple[str, str], int] = {key: rank for rank, key in enumerate(LOCK_ORDER)}


def lock_rank(class_name: str, lock_attr: str) -> Optional[int]:
    """Rank of ``(class_name, lock_attr)`` in the canonical order.

    ``None`` for locks not in the registry — unranked locks are exempt from
    ordering checks (but still subject to guarded-attribute discipline).
    """
    return _RANK.get((class_name, lock_attr))
