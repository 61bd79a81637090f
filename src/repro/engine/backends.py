"""Pluggable execution backends for :class:`~repro.engine.batch.OracleBatch`.

A backend decides *how* one adaptive round's independent oracle queries are
answered; it never changes *what* is asked, so fixed-seed sampler runs produce
identical samples no matter which backend executes them.

* :class:`ExecutionBackend` — the base every backend shares: one round per
  batch, and query hooks that are the stacked routes, the distribution's
  batch-aware oracles (``counting_batch`` / ``joint_marginals_batch``) and
  the stacked NumPy primitives in :mod:`repro.linalg.batch`.
* :class:`SerialBackend` — the reference loop over scalar ``counting()``
  calls; what the pre-engine drivers did implicitly.
* :class:`VectorizedBackend` — the base's stacked routes as they are.
* :class:`ThreadPoolBackend` — ``concurrent.futures`` fan-out of scalar
  queries; NumPy releases the GIL inside LAPACK so large per-query
  determinants overlap on multicore hosts.
* :class:`ProcessPoolBackend` — worker *processes* fed through
  :mod:`multiprocessing.shared_memory` (:mod:`repro.engine.shm`), so
  GIL-bound pure-Python oracle paths (a distribution's scalar
  ``counting()`` loop) get real multicore parallelism.

Every backend charges the PRAM tracker identically: one adaptive round per
batch, ``n_queries`` machines, with per-query determinant work charged by the
oracles themselves — so depth/work accounting and wall-clock measurement live
side by side in :class:`~repro.engine.batch.OracleBatchResult`.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.engine.batch import BatchPayload, OracleBatch, OracleBatchResult
from repro.linalg.batch import grouped_log_principal_minors, hkpv_projection_step
from repro.pram.tracker import Tracker, current_tracker, use_tracker


@dataclass(frozen=True)
class BackendTraits:
    """Capability/overhead descriptor a backend reports to the planner.

    The :class:`~repro.engine.planner.RoundPlanner` reads the traits only to
    guess what a round would cost on a backend it has not yet measured in
    that round's regime; once measured, the measurement wins.

    Attributes
    ----------
    parallelism:
        Concurrent lanes the backend fans a batch out to (1 for the
        in-process backends).
    escapes_gil:
        Whether GIL-bound (pure-Python) oracle work actually runs on
        ``parallelism`` lanes — only true for worker *processes*; thread
        lanes serialize the Python-lane share of a batch.
    dispatch_overhead_s:
        Fixed cost of launching one batch (thread-pool handoff, or the
        process backend's IPC round trip + payload publication).
    """

    name: str
    parallelism: int = 1
    escapes_gil: bool = False
    dispatch_overhead_s: float = 0.0


#: a ``_dispatch`` return: plain values, or ``(values, artifacts)``
_DispatchReturn = Union[np.ndarray, Tuple[np.ndarray, Dict[str, object]]]


class ExecutionBackend:
    """Strategy for answering one :class:`OracleBatch`.

    The query hooks here are the stacked routes — the distributions' batch
    oracles and :func:`~repro.linalg.batch.grouped_log_principal_minors` —
    which :class:`VectorizedBackend` runs as they are.  A subclass overrides
    a hook to answer its kind another way (the serial loop, thread or
    process fan-out), or :meth:`execute` to delegate whole rounds.
    """

    #: short identifier used by ``configure_backend`` and reports
    name: str = "abstract"

    def execute(self, batch: OracleBatch, *, tracker: Optional[Tracker] = None) -> OracleBatchResult:
        """Answer ``batch`` inside one adaptive round of ``tracker`` and
        write the round's one record (:func:`repro.obs.record_round`)."""
        trk = tracker if tracker is not None else current_tracker()
        # inside a traced request this round becomes a child span; the
        # context stays active through _dispatch so the process backend can
        # ship it to worker chunks (obs.round_context() is None when off)
        trace_context = obs.round_context()
        work, oracle_calls = trk.work, trk.oracle_calls
        start = time.perf_counter()
        with trk.round(batch.label):
            trk.charge(machines=float(batch.n_queries))
            with use_tracker(trk):
                if trace_context is None:
                    values = self._dispatch(batch, trk)
                else:
                    with obs.activate(trace_context):
                        values = self._dispatch(batch, trk)
        artifacts: Dict[str, object] = {}
        if isinstance(values, tuple):
            values, artifacts = values
        result = OracleBatchResult(
            values=np.asarray(values),
            backend=self.name,
            wall_time=time.perf_counter() - start,
            n_queries=batch.n_queries,
            artifacts=artifacts,
        )
        obs.record_round(batch, result, work=trk.work - work,
                         oracle_calls=trk.oracle_calls - oracle_calls,
                         context=trace_context)
        return result

    def traits(self) -> BackendTraits:
        """This backend's capability/overhead descriptor (see :class:`BackendTraits`)."""
        return BackendTraits(name=self.name)

    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: OracleBatch, tracker: Tracker) -> _DispatchReturn:
        if batch.kind == "counting":
            return self._counting(batch, tracker)
        if batch.kind == "joint_marginals":
            return self._joint_marginals(batch, tracker)
        if batch.kind == "marginal_vector":
            return self._marginal_vector(batch, tracker)
        if batch.kind == "projection_step":
            return self._projection_step(batch, tracker)
        return self._log_principal_minors(batch, tracker)

    def _marginal_vector(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        # All backends use the distribution's native single-round route: it is
        # already vectorized per distribution, and sharing it keeps the
        # proposal numerics identical across backends.
        assert batch.distribution is not None
        return batch.distribution.marginal_vector(batch.given)

    def _projection_step(self, batch: OracleBatch, tracker: Tracker) -> _DispatchReturn:
        """One HKPV phase-2 round — a fixed route shared by every backend.

        Like ``marginal_vector``, this kind has exactly one numerical route
        (:func:`repro.linalg.batch.hkpv_projection_step`, a leverage
        downdate), so forcing any backend — or letting the planner choose —
        cannot perturb the sequential sampler's randomness.  The values are
        the downdated leverage scores and the ``"state"`` artifact carries
        ``(spans, leverages)`` into the next round.  A round is one
        ``n x m`` matvec per request against state that changes every round,
        so shipping it to worker processes could never pay for itself, which
        is why no backend overrides this.
        """
        basis = batch.matrix
        assert basis is not None
        stacked = basis if basis.ndim == 3 else basis[None]
        eliminate = batch.given if batch.given else None
        leverages, state = hkpv_projection_step(stacked, eliminate, batch.state)
        return leverages.reshape(-1), {"state": state}

    def _counting(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        """Raw counting values for ``batch.subsets``."""
        dist = batch.distribution
        assert dist is not None
        return np.asarray(dist.counting_batch(batch.subsets), dtype=float)

    def _joint_marginals(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        """``P[T ⊆ S]`` for ``batch.subsets``."""
        dist = batch.distribution
        assert dist is not None
        return np.asarray(dist.joint_marginals_batch(batch.subsets), dtype=float)

    def _log_principal_minors(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        """``log det(M_{T,T})`` (``-inf`` on nonpositive minors)."""
        assert batch.matrix is not None
        return grouped_log_principal_minors(batch.matrix, batch.subsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Reference implementation: a Python loop of scalar oracle calls."""

    name = "serial"

    def _map_chunks(self, worker, items: Sequence, tracker: Tracker) -> List:
        """The scalar loop every query kind runs; :class:`ThreadPoolBackend`
        fans it out to worker threads.  Workers charge the current tracker."""
        return [worker(item) for item in items]

    def _counting(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        dist = batch.distribution
        assert dist is not None
        return np.array(self._map_chunks(dist.counting, batch.subsets, tracker), dtype=float)

    def _joint_marginals(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        dist = batch.distribution
        assert dist is not None
        z = batch.normalizer()
        values = np.array(self._map_chunks(dist.counting, batch.subsets, tracker), dtype=float)
        return np.clip(values / z, 0.0, None)

    def _log_principal_minors(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        matrix = batch.matrix
        assert matrix is not None

        def one(subset):
            m = len(subset)
            current_tracker().charge_determinant(m)
            if m == 0:
                return 0.0
            idx = np.asarray(subset, dtype=int)
            sign, logdet = np.linalg.slogdet(matrix[np.ix_(idx, idx)])
            return logdet if sign > 0 else -np.inf

        return np.array(self._map_chunks(one, batch.subsets, tracker), dtype=float)


class VectorizedBackend(ExecutionBackend):
    """One stacked NumPy call per batch via the distributions' batch oracles
    (:class:`ExecutionBackend`'s own hooks)."""

    name = "vectorized"


class ThreadPoolBackend(SerialBackend):
    """``concurrent.futures`` fan-out of :class:`SerialBackend`'s scalar
    loops across worker threads.

    Workers run under private child trackers (the module-level current
    tracker is a :mod:`contextvars` variable, so worker threads would
    otherwise charge an unrelated sink); their work/oracle-call totals are
    merged into the round's tracker after the batch completes, keeping the
    accounting equivalent to :class:`SerialBackend` without cross-thread
    mutation.

    The executor is created lazily on first use and **reused across
    batches** (constructing a pool per :class:`OracleBatch` used to dominate
    the cost of small rounds); :meth:`close` shuts it down explicitly, and an
    :mod:`atexit` hook covers process teardown.  The executor itself is
    thread-safe, so concurrent sampler sessions can share one backend.
    """

    name = "threads"

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._atexit_registered = False

    @property
    def workers(self) -> int:
        """Resolved pool size (mirrors the ``concurrent.futures`` default)."""
        return self.max_workers or min(32, (os.cpu_count() or 1) + 4)

    def traits(self) -> BackendTraits:
        # effective lanes are host-capped: a 4-worker pool on a 1-core box
        # overlaps nothing, and the planner must know that
        return BackendTraits(
            name=self.name, parallelism=min(self.workers, os.cpu_count() or 1),
            dispatch_overhead_s=5e-4)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-oracle")
                if not self._atexit_registered:  # once per instance
                    self._atexit_registered = True
                    atexit.register(self.close)
            return self._pool

    def close(self) -> None:
        """Shut the (lazily created) executor down; later batches recreate it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _map_chunks(self, worker, items: Sequence, tracker: Tracker) -> List:
        if not items:
            return []
        fan_out = min(self.workers, len(items))
        chunk = max(1, int(math.ceil(len(items) / fan_out)))
        chunks = [items[i:i + chunk] for i in range(0, len(items), chunk)]

        def run_chunk(part):
            child = tracker.spawn()
            with use_tracker(child):
                return [worker(item) for item in part], child

        try:
            outputs = list(self._ensure_pool().map(run_chunk, chunks))
        except RuntimeError:
            # named backends share one instance, so another caller's close()
            # can shut the executor down between _ensure_pool() and map();
            # retry once on a fresh pool (charges merge only from outputs, so
            # the rerun cannot double-charge)
            outputs = list(self._ensure_pool().map(run_chunk, chunks))
        results: List = []
        for part_values, child in outputs:
            results.extend(part_values)
            tracker.charge(work=child.work, oracle_calls=child.oracle_calls)
        return results


# ---------------------------------------------------------------------- #
# process backend: worker-side entry point and per-process caches
# ---------------------------------------------------------------------- #
#: worker-side ``spec key -> distribution`` memo (FIFO-trimmed)
_WORKER_DISTRIBUTION_CAPACITY = 8
_worker_distributions: "OrderedDict[str, object]" = OrderedDict()


#: BLAS/OpenMP thread-count variables pinned in worker processes
_WORKER_BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_worker_blas_threads() -> None:
    """Pin the BLAS/OpenMP pools of worker processes to one thread.

    The process backend already fans out across ``max_workers`` processes;
    letting each worker's LAPACK additionally spawn ``cpu_count`` BLAS
    threads oversubscribes wide hosts ``workers x cores``-fold and thrashes
    caches.  BLAS reads these variables once, when NumPy loads it, and a
    spawned worker loads NumPy while unpickling its entry point, before any
    pool initializer could run.  So the pin goes into the environment the
    workers are spawned with: this runs in the parent before its pool starts,
    and afterwards the parent's ``os.environ`` holds ``"1"`` for every
    variable of ``_WORKER_BLAS_ENV_VARS`` that it did not set before.  The
    parent's own BLAS, already loaded, keeps its threads; processes it starts
    later inherit the pin.  ``setdefault`` keeps an operator's explicit
    setting authoritative.
    """
    for var in _WORKER_BLAS_ENV_VARS:
        os.environ.setdefault(var, "1")


def _process_worker_run(payload: BatchPayload, subsets: Sequence,
                        chunk_index: int = 0,
                        ) -> Tuple[np.ndarray, float, int,
                                   Optional[Dict[str, object]]]:
    """Answer one chunk of a shipped batch inside a worker process.

    Runs under a private tracker, which prices work as the parent's does,
    and returns ``(values, work, oracle_calls, span)`` so the parent can
    merge PRAM accounting exactly like the thread backend merges its child
    trackers.  Kernels arrive as shared-memory refs and are rebuilt once per
    process (see :mod:`repro.engine.shm`).

    ``span`` is a plain dict describing this chunk's execution when the
    payload carries a trace context (``None`` otherwise): the worker's obs
    singletons are dark, so the dict rides home with the result and the
    parent records it.  Span ids are hierarchical
    (``{round_span}.w{chunk_index}``) — unique without cross-process id
    coordination, and R1-clean (no wall clock, no randomness).
    """
    from repro.engine.shm import attach_shared_array

    chunk = tuple(tuple(s) for s in subsets)
    child = Tracker()
    started = time.perf_counter()
    with use_tracker(child):
        if payload.kind == "log_principal_minors":
            matrix = attach_shared_array(payload.matrix)
            values = grouped_log_principal_minors(matrix, chunk)
        else:
            distribution = payload.build_distribution(attach_shared_array,
                                                      _worker_distributions)
            while len(_worker_distributions) > _WORKER_DISTRIBUTION_CAPACITY:
                _worker_distributions.popitem(last=False)
            values = np.asarray(distribution.counting_batch(list(chunk)), dtype=float)
    span: Optional[Dict[str, object]] = None
    if payload.trace is not None:
        trace_id, parent_span = payload.trace
        span = {
            "name": "worker-chunk",
            "category": "worker_chunk",
            "trace_id": trace_id,
            "parent_id": parent_span,
            "span_id": f"{parent_span}.w{chunk_index}",
            "start": started,
            "duration": time.perf_counter() - started,
            "queries": len(chunk),
            "pid": os.getpid(),
        }
    return np.asarray(values, dtype=float), child.work, child.oracle_calls, span


class ProcessPoolBackend(ExecutionBackend):
    """Worker-process fan-out over a shared-memory kernel store.

    The thread backend only overlaps inside LAPACK; pure-Python oracle paths
    (a distribution's scalar ``counting()`` loop) serialize on the GIL.  This backend
    executes each batch across worker processes instead: the kernel/ensemble
    payload is placed once in :mod:`multiprocessing.shared_memory`
    (content-fingerprinted, cached on both sides — see
    :mod:`repro.engine.shm`), so repeated rounds against the same kernel ship
    only query indices.

    * ``max_workers`` — the worker-process count (default: CPU count); a
      batch splits into one chunk per worker.
    * Workers start by ``spawn``, never fork: fork duplicates the parent's
      locks/threads (the serving layer runs schedulers on threads) and is
      unsafe with most BLAS implementations.
    * Workers answer chunks through the distributions' ``counting_batch``
      oracles under private trackers; the parent merges work/oracle-call
      totals, so PRAM accounting matches the other backends (one round per
      batch, ``n_queries`` machines).
    * Fallback: when shared memory is unavailable, the pool fails
      ``MAX_POOL_REBUILDS`` batches in a row (it cannot start, or its
      workers die), or a distribution cannot be shipped (e.g. closures over
      unpicklable state), execution degrades gracefully to the vectorized
      backend with a one-time warning — never a mid-round crash.

    Fixed-seed samples are identical to every other backend: all randomness
    stays in the parent, and workers run the same batched numerics the
    vectorized backend runs in-process.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._pool = None
        self._store = None
        self._degraded: Optional[str] = None  # reason, once permanently degraded
        self._broken_pools = 0  # consecutive pool deaths; bounded rebuild retries
        self._warned_specs: set = set()
        self._atexit_registered = False

    @property
    def workers(self) -> int:
        """Resolved worker-process count."""
        return self.max_workers or (os.cpu_count() or 1)

    def traits(self) -> BackendTraits:
        # effective lanes are host-capped (see ThreadPoolBackend.traits)
        return BackendTraits(
            name=self.name, parallelism=min(self.workers, os.cpu_count() or 1),
            escapes_gil=True, dispatch_overhead_s=2e-3)

    # ------------------------------------------------------------------ #
    # pool / store lifecycle
    # ------------------------------------------------------------------ #
    #: consecutive pool deaths tolerated before degrading permanently
    MAX_POOL_REBUILDS = 3

    def _ensure_pool(self):
        with self._lock:
            if self._degraded is not None:
                # a concurrent _degrade() won the race: do not resurrect a
                # pool this backend will never use again
                raise RuntimeError(f"process backend degraded: {self._degraded}")
            if self._pool is None:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = multiprocessing.get_context("spawn")
                _pin_worker_blas_threads()
                self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                                 mp_context=context)
                self._register_atexit_locked()
            return self._pool

    def _ensure_store(self):
        from repro.engine.shm import SharedArrayStore

        with self._lock:
            if self._store is None:
                self._store = SharedArrayStore()
                self._register_atexit_locked()
            return self._store

    def _register_atexit_locked(self) -> None:
        # once per instance — close()/recreate cycles must not accumulate
        # duplicate callbacks (close is idempotent either way)
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(self.close)

    def close(self) -> None:
        """Shut down worker processes and unlink published segments."""
        with self._lock:
            pool, self._pool = self._pool, None
            store, self._store = self._store, None
        if pool is not None:
            pool.shutdown(wait=True)
        if store is not None:
            store.close()

    def _degrade(self, reason: str) -> None:
        if self._degraded is None:
            self._degraded = reason
            warnings.warn(
                f"process backend degraded to vectorized execution: {reason}",
                RuntimeWarning, stacklevel=3)
        self.close()

    # ------------------------------------------------------------------ #
    # shipping
    # ------------------------------------------------------------------ #
    def _payload(self, batch: OracleBatch) -> Optional[BatchPayload]:
        """Shippable payload for ``batch``, or ``None`` to fall back."""
        from repro.engine.shm import shared_memory_available

        if self._degraded is not None:
            return None
        if not shared_memory_available():
            self._degrade("multiprocessing.shared_memory is unavailable on this host")
            return None
        try:
            return batch.to_payload(publish=self._ensure_store().publish)
        except Exception as exc:
            kind = type(batch.distribution).__name__ if batch.distribution is not None else "matrix"
            if kind not in self._warned_specs:
                self._warned_specs.add(kind)
                warnings.warn(
                    f"cannot ship {kind} to worker processes ({exc}); "
                    "answering this batch on the vectorized backend",
                    RuntimeWarning, stacklevel=3)
            return None

    def _fan_out(self, payload: BatchPayload, subsets: Sequence,
                 tracker: Tracker) -> Optional[np.ndarray]:
        """Chunked worker execution; ``None`` on failure (caller falls back).

        Returns the concatenated values of one chunk per worker.  Worker
        charges are committed to ``tracker`` only after every chunk succeeds
        — a mid-batch failure must not leave partial charges behind, or the
        vectorized fallback would double-charge the round's work.
        """
        from dataclasses import replace

        round_context = obs.current_context()
        if round_context is not None:
            shipped = replace(payload, subsets=(),
                              trace=(round_context.trace_id,
                                     round_context.span_id))
        else:
            shipped = replace(payload, subsets=())
        step = max(1, int(math.ceil(len(subsets) / self.workers)))
        chunks = [subsets[i:i + step] for i in range(0, len(subsets), step)]
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_process_worker_run, shipped, chunk, index)
                       for index, chunk in enumerate(chunks)]
            parts: List[np.ndarray] = []
            total_work = 0.0
            total_calls = 0
            worker_spans: List[Dict[str, object]] = []
            for future in futures:
                values, work, oracle_calls, span = future.result()
                parts.append(values)
                total_work += work
                total_calls += oracle_calls
                if span is not None:
                    worker_spans.append(span)
        except (OSError, RuntimeError) as exc:
            # a dead worker (BrokenProcessPool), a failed spawn, a worker
            # racing shm-store eviction, or a concurrent _degrade(): this
            # batch falls back and the pool is rebuilt on the next one, but
            # MAX_POOL_REBUILDS failures in a row degrade the backend for good
            with self._lock:
                pool, self._pool = self._pool, None
                self._broken_pools += 1
                exhausted = self._broken_pools >= self.MAX_POOL_REBUILDS
            if pool is not None:
                pool.shutdown(wait=False)
            if exhausted:
                self._degrade(f"worker pool failed {self._broken_pools} times ({exc})")
            elif self._degraded is None and "pool-rebuild" not in self._warned_specs:
                self._warned_specs.add("pool-rebuild")
                warnings.warn(
                    f"process backend could not answer this batch ({exc}); "
                    "answering it on the vectorized backend and rebuilding the pool",
                    RuntimeWarning, stacklevel=4)
            return None
        with self._lock:
            self._broken_pools = 0  # a full batch succeeded: reset the budget
        tracker.charge(work=total_work, oracle_calls=total_calls)
        for span in worker_spans:
            obs.tracer().record_span(**span)
        return np.concatenate(parts) if parts else np.empty(0, dtype=float)

    # ------------------------------------------------------------------ #
    # batch kinds (one shared skeleton: ship, fan out, or fall back whole)
    # ------------------------------------------------------------------ #
    def _answer(self, batch: OracleBatch, tracker: Tracker, fallback,
                finish=None) -> np.ndarray:
        """Ship ``batch`` to workers, else answer it whole on ``fallback``.

        ``finish`` post-processes successful fan-out values only — the
        fallback methods produce finished values themselves.
        """
        if not batch.subsets:
            return np.empty(0, dtype=float)
        payload = self._payload(batch)
        if payload is not None:
            values = self._fan_out(payload, batch.subsets, tracker)
            if values is not None:
                return finish(values) if finish is not None else values
        return fallback(batch, tracker)

    def _counting(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        return self._answer(batch, tracker, super()._counting)

    def _joint_marginals(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        # workers return raw counting values; the parent normalizes exactly
        # like the serial/thread backends (one normalizer query per batch)
        return self._answer(
            batch, tracker, super()._joint_marginals,
            finish=lambda values: np.clip(values / batch.normalizer(), 0.0, None))

    def _log_principal_minors(self, batch: OracleBatch, tracker: Tracker) -> np.ndarray:
        return self._answer(batch, tracker, super()._log_principal_minors)
