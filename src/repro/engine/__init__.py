"""Vectorized oracle-batch engine with pluggable execution backends.

The paper's speedup story is that each adaptive round issues *many
independent counting-oracle queries at once*.  This package makes that round
a first-class object and separates the *what* from the *how*:

::

    sampler round                engine                      oracle layer
    -------------                ------                      ------------
    adaptive round  --builds-->  OracleBatch  --executed-->  counting_batch /
    (marginals,                  (queries,       by an       joint_marginals_batch /
     density ratios)              normalizer)  ExecutionBackend  stacked linalg

* :class:`~repro.engine.batch.OracleBatch` — a declarative request: many
  subsets against one distribution (or matrix), answered in one round.
* :class:`~repro.engine.backends.ExecutionBackend` — how the round fans out.
  Its own hooks are the stacked routes (the distributions' batch oracles
  and :mod:`repro.linalg.batch`), which
  :class:`~repro.engine.backends.VectorizedBackend` runs as they are;
  :class:`~repro.engine.backends.SerialBackend` (reference scalar loop),
  :class:`~repro.engine.backends.ThreadPoolBackend`
  (``concurrent.futures`` fan-out), and
  :class:`~repro.engine.backends.ProcessPoolBackend` (worker processes over
  a :mod:`multiprocessing.shared_memory` kernel store —
  :mod:`repro.engine.shm` — so GIL-bound oracle paths scale across cores).
* :class:`~repro.engine.planner.AutoBackend` / ``backend="auto"`` (the
  default) — the :class:`~repro.engine.planner.RoundPlanner` routes every
  batch on the round times the engine measures: rounds start on
  ``vectorized``, and another candidate runs only when it has measured, or
  is guessed, faster than the measured reference.
* :func:`~repro.engine.config.configure_backend` /
  :func:`~repro.engine.config.use_backend` — process-wide / scoped selection;
  every sampler additionally accepts ``backend=...`` per call, which always
  bypasses the planner.

Backends answer the *same* queries with the same numerics, so fixed-seed
sampler runs produce identical samples across backends; the PRAM tracker
records one round per batch regardless of execution strategy, which keeps the
paper's depth accounting independent of wall-clock engineering.
"""

from repro.engine.batch import BATCH_KINDS, BatchPayload, OracleBatch, OracleBatchResult
from repro.engine.backends import (
    BackendTraits,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)
from repro.engine.planner import AutoBackend, PlanDecision, RoundPlanner
from repro.engine.shm import ArrayRef, SharedArrayStore, shared_memory_available
from repro.engine.config import (
    BACKEND_REGISTRY,
    BackendLike,
    configure_backend,
    current_backend,
    resolve_backend,
    use_backend,
)

from typing import Optional

from repro.pram.tracker import Tracker


def execute_batch(batch: OracleBatch, *, tracker: Optional[Tracker] = None,
                  backend=None) -> OracleBatchResult:
    """Execute ``batch`` on ``backend`` (or the currently configured one)."""
    return resolve_backend(backend).execute(batch, tracker=tracker)


__all__ = [
    "BATCH_KINDS",
    "ArrayRef",
    "AutoBackend",
    "BackendTraits",
    "BatchPayload",
    "OracleBatch",
    "OracleBatchResult",
    "ExecutionBackend",
    "PlanDecision",
    "RoundPlanner",
    "SerialBackend",
    "SharedArrayStore",
    "VectorizedBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "shared_memory_available",
    "BACKEND_REGISTRY",
    "BackendLike",
    "configure_backend",
    "current_backend",
    "resolve_backend",
    "use_backend",
    "execute_batch",
]
