"""Cross-request round fusion: one engine round for many concurrent samples.

The paper's samplers spend their wall-clock answering batched counting-oracle
rounds (:class:`~repro.engine.batch.OracleBatch`).  When a serving process
has several sample requests in flight against the *same* distribution, their
per-round query batches are independent — so instead of executing one small
batch per request, the :class:`RoundScheduler` runs each request on its own
thread behind a :class:`_FusingBackend` proxy that parks every submitted
batch at a rendezvous; once all live requests are parked, the compatible
batches are **fused** (same kind, same distribution object → subsets
concatenated; identical marginal-vector queries → answered once and shared;
same-step HKPV ``projection_step`` rounds → bases and chain states stacked
into one leverage-downdate round) and executed as a single batch through the
real execution backend, then split back per request.  Spectral (HKPV) requests are
submitted with ``submit(..., method="spectral")``: concurrent same-kernel
requests run phase 2 in lockstep, so every step fuses.

The scheduler's backend may be any engine backend, including
``backend="process"``: fused batches then ship through the process backend's
shared-memory kernel store and execute across worker processes, which is how
fused rounds escape the GIL on the pure-Python oracle paths (named backends
resolve to one shared instance, so every drain reuses the same worker pool
and published kernel segments).

Determinism contract: fusion never touches a request's random stream (each
request owns a generator, by explicit seed or a :func:`repro.utils.rng.substream`
of the scheduler's root seed) and the stacked oracle primitives answer each
query independently of its neighbours in the stack, so a fixed-seed request
returns the identical sample fused or unfused, on every backend.  PRAM depth
is likewise preserved: each request's tracker is charged one round per batch
exactly as unfused execution would; the fused round's *work* is accounted on
the scheduler (see :attr:`RoundScheduler.stats`) since it is genuinely shared.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.result import SampleResult
from repro.engine import BackendLike, ExecutionBackend, OracleBatch, OracleBatchResult, resolve_backend
from repro.pram.tracker import Tracker
from repro.utils.rng import SeedLike, substream

__all__ = ["RoundScheduler", "SampleTicket"]

#: seconds between barrier re-checks (wake-ups also happen on every submit/finish)
_POLL_INTERVAL = 0.02


@dataclass
class SampleTicket:
    """Handle for one submitted request; resolved by ``drain()``."""

    index: int
    k: Optional[int]
    seed: SeedLike
    method: str = "parallel"
    kwargs: Dict[str, object] = field(default_factory=dict)
    result: Optional[SampleResult] = None
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)
    #: when the request entered the queue (drives the queue-wait histogram)
    submitted_at: float = field(default_factory=time.perf_counter)
    #: the session's kernel epoch at submission time — requests queued before
    #: and after an incremental update are distinguishable after the drain
    epoch: Optional[int] = None
    #: trace context captured at submit() time — drain threads do not
    #: inherit context vars, so the request's trace parent rides the ticket
    #: (``None`` when tracing is off or the submitter is untraced)
    trace: Optional[obs.TraceContext] = None


@dataclass
class _PendingExec:
    """One request's parked OracleBatch awaiting the fusion rendezvous."""

    batch: OracleBatch
    tracker: Optional[Tracker]
    result: Optional[OracleBatchResult] = None
    error: Optional[BaseException] = None
    #: the parking request's trace context — the fused round links back to
    #: every member's request span through these
    ctx: Optional[obs.TraceContext] = None


class _FusionCoordinator:
    """Barrier + merge point shared by the request threads of one drain."""

    def __init__(self, inner: ExecutionBackend, active: int):
        self._inner = inner
        self._cond = threading.Condition()
        self._active = active
        self._pending: List[_PendingExec] = []
        self._flushing = False
        self._scratch = Tracker()
        self.fused_rounds = 0
        self.executed_batches = 0
        self.submitted_batches = 0

    # ------------------------------------------------------------------ #
    def job_done(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def execute(self, batch: OracleBatch, tracker: Optional[Tracker]) -> OracleBatchResult:
        """Park ``batch`` until every live request has parked, then fuse.

        Whichever thread observes the full barrier becomes the leader and
        performs the fused execution with the condition released, so parked
        threads (and late finishers) keep making progress.
        """
        entry = _PendingExec(batch, tracker, ctx=obs.current_context())
        with self._cond:
            self._pending.append(entry)
            self.submitted_batches += 1
            self._cond.notify_all()
            while entry.result is None and entry.error is None:
                barrier_full = (not self._flushing and self._pending
                                and len(self._pending) >= self._active)
                if barrier_full:
                    taken = list(self._pending)
                    self._pending.clear()
                    self._flushing = True
                    self._cond.release()
                    try:
                        self._flush(taken)
                    finally:
                        self._cond.acquire()
                        self._flushing = False
                        self._cond.notify_all()
                else:
                    self._cond.wait(_POLL_INTERVAL)
        if entry.error is not None:
            raise entry.error
        return entry.result

    # ------------------------------------------------------------------ #
    def _flush(self, entries: List[_PendingExec]) -> None:
        self.fused_rounds += 1
        obs.record_fusion(len(entries))
        for group in self._group(entries).values():
            try:
                self._execute_group(group)
            except BaseException as exc:  # surface on every member request
                for member in group:
                    member.error = exc

    @staticmethod
    def _group(entries: List[_PendingExec]) -> Dict[tuple, List[_PendingExec]]:
        """Fusable groups: same kind against the same distribution/matrix.

        ``marginal_vector`` additionally keys on ``given`` — equal keys mean
        the *identical* query, answered once and shared by every member.
        ``projection_step`` keys on the basis *shape* and the chosen span's
        shape (``None`` on the first step): every member has its own basis
        and state, and same-step rounds — concurrent same-kernel HKPV
        requests run phase 2 in lockstep — stack into one projection round.
        """
        groups: Dict[tuple, List[_PendingExec]] = {}
        for entry in entries:
            b = entry.batch
            if b.kind == "marginal_vector":
                key = (b.kind, id(b.distribution), b.given)
            elif b.kind == "projection_step":
                key = (b.kind, b.matrix.shape, None if b.state is None else b.state[0].shape)
            elif b.kind == "log_principal_minors":
                key = (b.kind, id(b.matrix))
            else:
                key = (b.kind, id(b.distribution))
            groups.setdefault(key, []).append(entry)
        return groups

    def _execute_group(self, group: List[_PendingExec]) -> None:
        first = group[0].batch
        start = time.perf_counter()
        if first.kind == "projection_step" and len(group) > 1:
            self._execute_projection_group(group)
            return
        if first.kind == "marginal_vector" or len(group) == 1:
            # identical query (or nothing to merge): one execution, shared
            with self._fused_span(group):
                shared = self._inner.execute(first, tracker=self._scratch)
            self.executed_batches += 1
            elapsed = time.perf_counter() - start
            for member in group:
                self._charge(member)
                member.result = OracleBatchResult(
                    values=shared.values.copy(), backend=f"fused({self._inner.name})",
                    wall_time=elapsed, n_queries=member.batch.n_queries,
                    artifacts=dict(shared.artifacts))
            return
        # concatenate subsets into one batch; split the stacked answer back
        offsets = [0]
        subsets: List[tuple] = []
        for member in group:
            subsets.extend(member.batch.subsets)
            offsets.append(len(subsets))
        merged = OracleBatch(kind=first.kind, distribution=first.distribution,
                             matrix=first.matrix, subsets=tuple(subsets),
                             label=f"fused-{first.label}")
        with self._fused_span(group):
            fused = self._inner.execute(merged, tracker=self._scratch)
        self.executed_batches += 1
        elapsed = time.perf_counter() - start
        for member, lo, hi in zip(group, offsets[:-1], offsets[1:]):
            self._charge(member)
            member.result = OracleBatchResult(
                values=np.asarray(fused.values[lo:hi]).copy(),
                backend=f"fused({self._inner.name})",
                wall_time=elapsed, n_queries=hi - lo)

    def _execute_projection_group(self, group: List[_PendingExec]) -> None:
        """Stack same-step HKPV rounds into one batched projection round.

        Every member contributes its own ``(n, m)`` basis and, after the
        first step, its eliminated element and ``(spans, leverages)`` state;
        the stacked batch runs each member's downdate on its own slices
        (:func:`repro.linalg.batch.hkpv_projection_step`), so each request's
        leverages and state — and therefore its fixed-seed sample — match
        unfused execution bitwise, while ``G`` small steps collapse into one
        stacked round.  The stacked state is split back per member.
        """
        first = group[0].batch
        start = time.perf_counter()
        stacked = np.stack([member.batch.matrix for member in group])
        eliminate = state = None
        if first.state is not None:
            eliminate = tuple(member.batch.given[0] for member in group)
            state = (np.concatenate([member.batch.state[0] for member in group]),
                     np.concatenate([member.batch.state[1] for member in group]))
        merged = OracleBatch.projection_step(stacked, eliminate=eliminate, state=state,
                                             label=f"fused-{first.label}")
        with self._fused_span(group):
            fused = self._inner.execute(merged, tracker=self._scratch)
        self.executed_batches += 1
        elapsed = time.perf_counter() - start
        rows = first.matrix.shape[0]
        spans, leverages = fused.artifacts["state"]
        for position, member in enumerate(group):
            self._charge(member)
            member.result = OracleBatchResult(
                values=np.asarray(fused.values[position * rows:(position + 1) * rows]).copy(),
                backend=f"fused({self._inner.name})",
                wall_time=elapsed, n_queries=rows,
                artifacts={"state": (spans[position:position + 1],
                                     leverages[position:position + 1])})

    @staticmethod
    def _fused_span(group: List[_PendingExec]):
        """Span for one fused execution, **linked** to every member request.

        The leader thread's ambient context (its own request span) parents
        the fused span — so the engine round executed inside becomes its
        child — while the links attribute the shared work to every fused
        request, including requests from *other* trace trees.  A no-op
        context manager when tracing is off.
        """
        first = group[0].batch
        links = [member.ctx for member in group if member.ctx is not None]
        return obs.span(f"fused-{first.kind}", category="fused_round",
                        links=links or None, width=len(group),
                        kind=first.kind, queries=first.n_queries)

    @staticmethod
    def _charge(member: _PendingExec) -> None:
        """Charge the member's tracker exactly as unfused execution would:
        one adaptive round, ``n_queries`` machines."""
        if member.tracker is None:
            return
        with member.tracker.round(member.batch.label):
            member.tracker.charge(machines=float(member.batch.n_queries))

    @property
    def shared_work(self) -> float:
        return self._scratch.work


class _FusingBackend(ExecutionBackend):
    """Per-request proxy backend that routes every round to the coordinator."""

    name = "fused"

    def __init__(self, coordinator: _FusionCoordinator):
        self._coordinator = coordinator

    def execute(self, batch: OracleBatch, *, tracker: Optional[Tracker] = None) -> OracleBatchResult:
        return self._coordinator.execute(batch, tracker)


class RoundScheduler:
    """Thread-safe ``submit()`` / ``drain()`` front of one sampler session.

    ``submit`` queues a request (assigning it a deterministic
    :func:`~repro.utils.rng.substream` of the scheduler's root seed when no
    explicit seed is given); ``drain`` launches all queued requests
    concurrently, fuses their engine rounds, and returns results in
    submission order.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_queued", "_submitted", "drains", "fused_rounds",
                             "executed_batches", "submitted_batches", "shared_work")}

    def __init__(self, session, *, backend: BackendLike = None, seed: SeedLike = None,
                 max_concurrency: int = 64):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be positive, got {max_concurrency}")
        self.session = session
        self._backend = backend if backend is not None else session.backend
        self._root_seed = seed if seed is not None else 0
        self.max_concurrency = int(max_concurrency)
        self._lock = threading.Lock()
        self._queued: List[SampleTicket] = []
        self._submitted = 0
        self.drains = 0
        self.fused_rounds = 0
        self.executed_batches = 0
        self.submitted_batches = 0
        self.shared_work = 0.0

    # ------------------------------------------------------------------ #
    def submit(self, k: Optional[int] = None, *, seed: SeedLike = None,
               method: str = "parallel",
               trace: Optional[obs.TraceContext] = None,
               **kwargs) -> SampleTicket:
        """Queue one sample request; returns its ticket.

        ``method`` selects the sampler family: ``"parallel"`` (the paper's
        batched samplers; the default) or ``"spectral"`` (the HKPV sampler,
        symmetric kernels only) — spectral requests fuse too, their lockstep
        phase-2 projection rounds stacking into single rounds across
        requests sharing one eigenbasis.  ``kwargs`` are forwarded to
        ``session.sample()`` (e.g. ``config=``, ``delta=``); ``backend`` is
        owned by the scheduler (set ``backend=`` on the scheduler itself)
        and is rejected here rather than failing at drain time.

        ``trace`` is the submitter's trace context — defaults to the one
        active on the submitting thread (shard nodes pass the context that
        arrived in the wire frame), and parents the request's span tree at
        drain time since drain threads do not inherit context vars.
        """
        if "backend" in kwargs:
            raise TypeError(
                "submit() does not accept ['backend']: the scheduler executes fused "
                "rounds on its own backend (set backend= on the scheduler)"
            )
        method = self.session._resolve_method(method)  # raises at submit, not drain
        if trace is None:
            trace = obs.current_context()
        with self._lock:
            index = self._submitted
            self._submitted += 1
            if seed is None:
                seed = substream(self._root_seed, index)
            ticket = SampleTicket(index=index, k=k, seed=seed, method=method,
                                  kwargs=dict(kwargs),
                                  epoch=getattr(self.session, "epoch", None),
                                  trace=trace)
            self._queued.append(ticket)
            return ticket

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._queued)

    # ------------------------------------------------------------------ #
    def drain(self) -> List[SampleResult]:
        """Run every queued request to completion with round fusion.

        Results are returned in submission order; the first request error is
        re-raised after all threads have finished (tickets keep per-request
        errors either way).  At most ``max_concurrency`` requests run (and
        fuse) at once — larger queues are drained in deterministic waves, so
        heavy traffic cannot exhaust OS threads.
        """
        with self._lock:
            tickets = list(self._queued)
            self._queued.clear()
        if not tickets:
            return []
        started = time.perf_counter()
        inner = resolve_backend(self._backend)
        for start in range(0, len(tickets), self.max_concurrency):
            self._drain_wave(tickets[start:start + self.max_concurrency], inner)
        with self._lock:
            self.drains += 1
        obs.record_drain(time.perf_counter() - started, len(tickets))
        for ticket in tickets:
            if ticket.error is not None:
                raise ticket.error
        return [ticket.result for ticket in tickets]

    def _drain_wave(self, tickets: List[SampleTicket], inner: ExecutionBackend) -> None:
        coordinator = _FusionCoordinator(inner, active=len(tickets))
        threads = [
            threading.Thread(
                target=self._run_one, args=(ticket, coordinator),
                name=f"repro-serve-{ticket.index}", daemon=True,
            )
            for ticket in tickets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with self._lock:  # concurrent drain() calls merge counters safely
            self.fused_rounds += coordinator.fused_rounds
            self.executed_batches += coordinator.executed_batches
            self.submitted_batches += coordinator.submitted_batches
            self.shared_work += coordinator.shared_work
        obs.record_batch_counts(coordinator.submitted_batches,
                                coordinator.executed_batches)

    def _run_one(self, ticket: SampleTicket, coordinator: _FusionCoordinator) -> None:
        try:
            waited = time.perf_counter() - ticket.submitted_at
            obs.record_queue_wait(waited)
            proxy = _FusingBackend(coordinator)
            # re-activate the submit-time context (fresh threads start with
            # none), then scope the whole execution under a request span
            # whose start is the *submission* instant — with the queue wait
            # recorded as a child span, time-in-queue is separable from
            # execution in the same tree
            with obs.activate(ticket.trace), \
                    obs.span("scheduled-request", category="request",
                             family=self.session.entry.kind,
                             start=ticket.submitted_at,
                             index=ticket.index, method=ticket.method):
                queue_span = obs.start_span("queue-wait", category="queue",
                                            start=ticket.submitted_at)
                obs.end_span(queue_span, end=ticket.submitted_at + waited)
                ticket.result = self.session.sample(
                    ticket.k, seed=ticket.seed, method=ticket.method,
                    backend=proxy, **ticket.kwargs)
        except BaseException as exc:
            ticket.error = exc
        finally:
            ticket.done.set()
            coordinator.job_done()

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Dict[str, object]:
        # Snapshot under the lock: a concurrent drain() merges several
        # counters at once, and an unlocked read could observe a drain whose
        # fused_rounds had landed but whose executed_batches had not.
        with self._lock:
            return {
                "drains": self.drains,
                "fused_rounds": self.fused_rounds,
                "submitted_batches": self.submitted_batches,
                "executed_batches": self.executed_batches,
                "shared_work": self.shared_work,
            }
