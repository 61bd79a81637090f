"""Sampler sessions: warm, cache-backed handles for repeated draws.

``session = repro.serve(L); session.sample(k=5, seed=...)`` is the serving
counterpart of the one-shot module-level samplers: the session pulls the
kernel's :class:`~repro.service.cache.KernelFactorization` from the shared
cache and runs the existing samplers on what it holds (``dpp/spectral.py``
via the ``eigh=`` argument, the intermediate sampler via its whitened basis,
a k-DPP's phase 1 via the epoch's ``steps=`` table,
the parallel samplers on the factorization's served distributions), so
repeated draws skip every per-kernel preprocessing step while producing
**bit-identical fixed-seed samples** — the warm path replays the cold path's
numerics exactly, it just doesn't recompute them.

Two sampling methods are exposed per kernel family:

* ``method="spectral"`` (symmetric kernels; the default there) — the HKPV
  sampler, the fastest wall-clock route for single draws once the
  eigendecomposition is amortized away;
* ``method="parallel"`` — the paper's batched low-depth samplers
  (Theorems 8/9/10), executed through :mod:`repro.engine` and therefore
  fusable across concurrent requests by the
  :class:`~repro.service.scheduler.RoundScheduler`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.batched import BatchedSamplerConfig, batched_sample
from repro.core.entropic import EntropicSamplerConfig, sample_entropic_parallel
from repro.core.result import SampleResult, SamplerReport
from repro.core.symmetric import kdpp_batched_config, sample_by_cardinality
from repro.distributions.base import SubsetDistribution
from repro.dpp.intermediate import sample_dpp_intermediate, sample_kdpp_intermediate
from repro.dpp.partition import check_grid_budget
from repro.dpp.spectral import sample_dpp_spectral, sample_kdpp_spectral
from repro.engine import BackendLike
from repro.linalg.updates import KernelUpdate
from repro.pram.tracker import Tracker, use_tracker
from repro.service.cache import KernelFactorization
from repro.service.registry import KernelRegistry, RegisteredKernel
from repro.utils.rng import SeedLike

__all__ = ["SamplerSession"]


class SessionBase:
    """The surface every serving session shares, local or cluster.

    :class:`SamplerSession` and :class:`~repro.cluster.client.ClusterSession`
    both subclass it: a consistent ``entry`` snapshot and its read-only
    ``name`` / ``kind`` / ``n`` / ``fingerprint`` / ``epoch``, the
    ``closed`` state with its ``with`` block, and the three update
    constructors.  Each subclass answers ``_apply_update`` (and ``close``,
    ``sample``, ``warm``, ``submit`` / ``drain``, ``stats``) for where its
    kernel lives.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_entry", "_closed")}

    def __init__(self, entry):
        # an RLock: a subclass's close()/scheduler()/submit() may hold it
        # while reading the properties below
        self._lock = threading.RLock()
        self._entry = entry
        self._closed = False

    @property
    def entry(self):
        """The kernel currently served — a consistent snapshot.

        Incremental updates (:meth:`update` / :meth:`append_items` /
        :meth:`delete_items`) swap this atomically; callers needing several
        coherent reads should snapshot once (``entry = session.entry``)
        instead of re-reading the property.
        """
        with self._lock:
            return self._entry

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def kind(self) -> str:
        return self.entry.kind

    @property
    def n(self) -> int:
        return self.entry.n

    @property
    def fingerprint(self) -> str:
        return self.entry.fingerprint

    @property
    def epoch(self) -> int:
        """How many incremental updates this session's kernel has absorbed."""
        return self.entry.epoch

    @property
    def closed(self) -> bool:
        # under the lock, so close() is visible to other threads before
        # they start a draw
        with self._lock:
            return self._closed

    def _check_open(self) -> None:
        with self._lock:
            closed = self._closed
        if closed:
            raise RuntimeError(f"session on kernel {self.name!r} is closed")

    def __enter__(self):
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # streaming kernels: incremental updates instead of O(n^3) recompute
    # ------------------------------------------------------------------ #
    def update(self, u: np.ndarray, v: Optional[np.ndarray] = None, *,
               weight: float = 1.0):
        """Apply a rank-1 kernel update ``L += weight * u v^T`` in place.

        ``v=None`` means the symmetric special case ``L += weight * u u^T``.
        A symmetric kernel's cached artifacts are *patched* (secular-equation
        eigen update, :mod:`repro.linalg.updates`) rather than recomputed,
        until the chain is deep enough that the registry rebuilds them lazily
        instead (:meth:`~repro.service.registry.KernelRegistry.apply_update`).
        A cluster session ships only the update's vectors (O(n) bytes, never
        the O(n²) matrix) to every owning shard, which patches its replica.
        An update that leaves the PSD / nPSD cone raises :class:`ValueError`
        and changes nothing.  Fixed-seed draws after the update match
        cold-registering the mutated matrix.  Returns the new entry.
        """
        return self._apply_update(KernelUpdate.rank_one(u, v, weight=weight))

    def append_items(self, rows: np.ndarray):
        """Grow a low-rank kernel's ground set: append factor rows (items)."""
        return self._apply_update(KernelUpdate.append_rows(rows))

    def delete_items(self, indices):
        """Shrink a low-rank kernel's ground set: delete factor rows (items)."""
        return self._apply_update(KernelUpdate.delete_rows(indices))


class SamplerSession(SessionBase):
    """A warm handle for repeated sampling against one registered kernel.

    Sessions are cheap: the artifacts and served distributions of the epoch
    their kernel's name serves are the registry's factorization cache's
    (:meth:`KernelFactorization.distribution`), one per kernel epoch and
    cardinality, shared by every session of the epoch.  Only a session left
    on a superseded epoch keeps that epoch's factorization itself.

    Every session belongs to a :class:`~repro.service.registry.KernelRegistry`
    and holds one pin on its kernel's name, taken by whoever opened it
    (:meth:`KernelRegistry.session`, ``repro.serve``); :meth:`close` — or
    leaving the session's ``with`` block — releases it, so the registry's TTL
    can reclaim an ephemeral (``repro.serve(matrix)`` auto-named) entry.
    Updates go through :meth:`KernelRegistry.apply_update`, so every later
    session on the name sees them.  Long-running services should treat
    sessions as scoped handles, not process-lifetime globals.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_entry", "_scheduler", "_closed", "samples_served",
                             "_superseded")}

    def __init__(self, registry: KernelRegistry, entry: RegisteredKernel, *,
                 backend: BackendLike = None):
        super().__init__(entry)
        self._registry = registry
        self.cache = registry.cache
        self.backend = backend
        self._scheduler = None
        self.samples_served = 0
        self._superseded: Optional[KernelFactorization] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release this session: drop its scheduler and its pin on the registration.

        Idempotent; sampling through a closed session raises
        ``RuntimeError``.  The factorization cache is shared and untouched —
        other sessions on the same kernel keep their warm artifacts.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            name = self._entry.name
            self._scheduler = None
            self._superseded = None
        self._registry.release(name)

    # ------------------------------------------------------------------ #
    @property
    def factorization(self) -> KernelFactorization:
        """The kernel's cached (or, on a cold cache, freshly computed) artifacts."""
        return self._factorization(self.entry)

    def _factorization(self, entry: RegisteredKernel) -> KernelFactorization:
        """The factorization a draw on ``entry`` reads.

        The shared cache's while ``entry`` is the epoch its name serves, or
        while the cache holds it for another registration of equal content.
        Any other superseded epoch's is kept by this session instead, so the
        draws of a session left on an old epoch do not put that epoch back in
        the cache, and the session drops it when it updates, adopts an entry
        or closes.  With ``capacity=0`` nothing is kept.
        """
        if (self.cache.capacity == 0 or self._registry.is_live(entry)
                or entry.fingerprint in self.cache):
            return self.cache.factorization(entry)
        with self._lock:
            fact = self._superseded
            if fact is None or fact.fingerprint != entry.fingerprint:
                fact = self._superseded = KernelFactorization(
                    entry.matrix, fingerprint=entry.fingerprint, kind=entry.kind,
                    parts=entry.parts, counts=entry.counts)
            return fact

    def warm(self) -> "SamplerSession":
        """Precompute every factorization artifact this kernel's samplers use.

        The serving layer's one warm-up: it moves the lazy per-artifact
        preprocessing (eigendecompositions, PSD factors, size distributions,
        partition torus tables) out of the first request's
        latency; see :meth:`~repro.service.cache.KernelFactorization.warm`.
        Returns the session for chaining: ``repro.serve(L).warm()``.
        """
        self._check_open()
        entry = self.entry
        if self.cache.capacity == 0:
            import warnings

            warnings.warn(
                f"warm() skipped for session on {entry.name!r}: the "
                "factorization cache has capacity=0 (storage disabled), so "
                "warmed artifacts could not be retained",
                RuntimeWarning, stacklevel=2)
            return self
        self._factorization(entry).warm()
        return self

    def distribution(self, k: Optional[int] = None) -> SubsetDistribution:
        """The distribution serving cardinality ``k``: the cache's one object
        for this kernel epoch and ``k``
        (:meth:`~repro.service.cache.KernelFactorization.distribution`)."""
        return self.factorization.distribution(k)

    # ------------------------------------------------------------------ #
    def sample(self, k: Optional[int] = None, *, seed: SeedLike = None,
               method: Optional[str] = None, backend: BackendLike = None,
               delta: float = 1e-2,
               config: Optional[Union[BatchedSamplerConfig, EntropicSamplerConfig]] = None,
               tracker: Optional[Tracker] = None) -> SampleResult:
        """Draw one sample, reusing every cached artifact.

        Fixed-seed draws are identical to the corresponding cold-path entry
        point (``sample_kdpp_spectral`` / ``sample_symmetric_kdpp_parallel``
        / ``sample_dpp_intermediate`` / ...): the cache changes wall-clock,
        never the sample.  ``method="lowrank"`` runs no engine round, so
        ``backend`` does not apply to it.
        """
        self._check_open()
        # One coherent snapshot per draw: a concurrent update() swaps the
        # entry atomically, so every draw samples entirely from one epoch.
        entry = self.entry
        method = self._resolve_method(method, entry)
        # Request-scoped trace: engine rounds executed below become children
        # of this span.  When called through a RoundScheduler ticket or a
        # shard node the caller's request is the root; this nested one
        # records the per-request execution slice without double-counting
        # SLO latency.
        with obs.span("sample", category="request", family=entry.kind,
                      kernel=entry.name, method=method,
                      k=-1 if k is None else int(k)):
            if method == "spectral":
                result = self._sample_spectral(entry, k, seed, tracker, backend)
            elif method == "lowrank":
                result = self._sample_lowrank(entry, k, seed, tracker)
            else:
                result = self._sample_parallel(entry, k, seed, tracker, backend, delta, config)
        if entry.epoch > 0:
            # Only streamed kernels are tagged — cold registrations keep the
            # report schema (and fixed-seed goldens) byte-for-byte unchanged.
            result.report.extra["kernel_epoch"] = float(entry.epoch)
        with self._lock:
            self.samples_served += 1
        return result

    def _resolve_method(self, method: Optional[str],
                        entry: Optional[RegisteredKernel] = None) -> str:
        kind = (entry if entry is not None else self.entry).kind
        if method is None:
            if kind == "symmetric":
                return "spectral"
            return "lowrank" if kind == "lowrank" else "parallel"
        if method not in ("spectral", "parallel", "lowrank"):
            raise ValueError(f"unknown sampling method {method!r}")
        if method == "spectral" and kind != "symmetric":
            raise ValueError(f"method='spectral' requires a symmetric kernel, got kind={kind!r}")
        if method == "lowrank" and kind != "lowrank":
            raise ValueError(
                f"method='lowrank' requires a LowRankKernel registration, got kind={kind!r}")
        return method

    # ------------------------------------------------------------------ #
    def _sample_spectral(self, entry: RegisteredKernel, k: Optional[int],
                         seed: SeedLike, tracker: Optional[Tracker],
                         backend: BackendLike = None) -> SampleResult:
        fact = self._factorization(entry)
        eigh = fact.eigh_pair
        backend = backend if backend is not None else self.backend
        trk = tracker if tracker is not None else Tracker()
        with use_tracker(trk):
            if k is None:
                subset = sample_dpp_spectral(entry.matrix, seed, validate=False,
                                             eigh=eigh, backend=backend)
            else:
                subset = sample_kdpp_spectral(entry.matrix, int(k), seed, validate=False,
                                              eigh=eigh, steps=fact.kdpp_steps(int(k)),
                                              backend=backend)
        return SampleResult(subset=subset, report=SamplerReport.from_tracker(trk))

    def _sample_lowrank(self, entry: RegisteredKernel, k: Optional[int],
                        seed: SeedLike, tracker: Optional[Tracker]) -> SampleResult:
        """The sublinear intermediate sampler over the cached whitened basis.

        Exactly the cold-path :func:`repro.dpp.intermediate.sample_dpp_intermediate`
        / :func:`~repro.dpp.intermediate.sample_kdpp_intermediate` draw — the
        cache supplies the one-time ``O(n·k² + k³)`` whitening, its
        ``O(n·k)`` proposal tables and a k-DPP's phase-1 step table, never
        touches the per-sample randomness.
        """
        fact = self._factorization(entry)
        whitened, tables = fact.lowrank_whitened, fact.lowrank_proposal_tables
        trk = tracker if tracker is not None else Tracker()
        with use_tracker(trk):
            if k is None:
                subset = sample_dpp_intermediate(entry.matrix, seed, whitened=whitened,
                                                 tables=tables)
            else:
                subset = sample_kdpp_intermediate(entry.matrix, int(k), seed,
                                                  whitened=whitened, tables=tables,
                                                  steps=fact.kdpp_steps(int(k)))
        return SampleResult(subset=subset, report=SamplerReport.from_tracker(trk))

    def _sample_parallel(self, entry: RegisteredKernel, k: Optional[int],
                         seed: SeedLike, tracker: Optional[Tracker],
                         backend: BackendLike, delta: float,
                         config: Optional[Union[BatchedSamplerConfig, EntropicSamplerConfig]]) -> SampleResult:
        backend = backend if backend is not None else self.backend
        if k is None and entry.kind != "partition":
            return self._sample_parallel_unconstrained(entry, seed, tracker, backend,
                                                       delta, config)
        if entry.kind in ("partition", "nonsymmetric"):
            return sample_entropic_parallel(self._factorization(entry).distribution(k),
                                            config, seed, tracker=tracker, backend=backend)
        # symmetric / low-rank k-DPP: same driver construction as
        # sample_symmetric_kdpp_parallel, so warm draws replay the cold
        # path's randomness verbatim (the low-rank distribution answers the
        # identical counting queries in factor space).
        kk = int(k)
        if config is not None:
            if not isinstance(config, BatchedSamplerConfig):
                raise TypeError(
                    "symmetric parallel sampling takes a BatchedSamplerConfig "
                    f"(as sample_symmetric_kdpp_parallel does), got {type(config).__name__}"
                )
            driver = config
        else:
            driver = kdpp_batched_config(kk, delta)
        return batched_sample(self._factorization(entry).distribution(kk), driver, seed,
                              tracker=tracker, backend=backend)

    def _sample_parallel_unconstrained(self, entry: RegisteredKernel, seed: SeedLike,
                                       tracker: Optional[Tracker],
                                       backend: BackendLike, delta: float,
                                       config: Optional[Union[BatchedSamplerConfig, EntropicSamplerConfig]]) -> SampleResult:
        """Remark 15 with a cached size distribution: draw ``|S|``, then k-DPP.

        The distribution is read before the ``cardinality-sampling`` round,
        so a served draw charges no preprocessing to it.  A nonsymmetric
        kernel over 406 items is refused before the draw, as the direct
        sampler refuses it: its k-DPP's torus tables would not fit.
        """
        if entry.kind == "nonsymmetric":
            check_grid_budget((entry.n + 1,), entry.n)
        sizes = self._factorization(entry).size_distribution
        return sample_by_cardinality(
            lambda: sizes,
            lambda k, rng, trk: self._sample_parallel(entry, k, rng, trk, backend,
                                                      delta, config),
            seed, tracker)

    # ------------------------------------------------------------------ #
    # streaming kernels: the registry makes the successor epoch
    # ------------------------------------------------------------------ #
    def _apply_update(self, update) -> RegisteredKernel:
        with self._lock:
            self._check_open()
            # the registry serializes updates per name; every later session
            # on this kernel opens on the new epoch
            entry = self._registry.apply_update(self._entry.name, update)
            self._entry = entry
            self._superseded = None
            return entry

    def adopt_entry(self, entry: RegisteredKernel) -> bool:
        """Switch this session to an externally updated epoch of its kernel.

        Used by shard nodes whose registry applied a cluster-shipped delta.
        Refuses (returns ``False``) if ``entry`` is *older* than what the
        session already serves — a racing adoption must never roll the
        kernel back.
        """
        with self._lock:
            self._check_open()
            if entry.epoch < self._entry.epoch:
                return False
            self._entry = entry
            self._superseded = None
            return True

    # ------------------------------------------------------------------ #
    # concurrent traffic: delegate to a lazily created RoundScheduler
    # ------------------------------------------------------------------ #
    def scheduler(self, *, backend: BackendLike = None, seed: SeedLike = None):
        """This session's (lazily created) round-fusing request scheduler.

        ``backend``/``seed`` only apply when the scheduler is first created;
        asking for different settings later raises instead of silently
        returning the old scheduler — construct a
        :class:`~repro.service.scheduler.RoundScheduler` directly for
        several schedulers over one session.
        """
        from repro.service.scheduler import RoundScheduler

        with self._lock:
            self._check_open()
            if self._scheduler is None:
                self._scheduler = RoundScheduler(self, backend=backend, seed=seed)
            elif backend is not None or seed is not None:
                raise ValueError(
                    "this session's scheduler already exists; create a RoundScheduler "
                    "directly to use a different backend or root seed"
                )
            return self._scheduler

    def submit(self, k: Optional[int] = None, *, seed: SeedLike = None, **kwargs):
        """Queue a sample request for fused execution (see :meth:`drain`)."""
        return self.scheduler().submit(k, seed=seed, **kwargs)

    def drain(self) -> List[SampleResult]:
        """Run all queued requests, fusing concurrent rounds; results in
        submission order."""
        return self.scheduler().drain()

    # ------------------------------------------------------------------ #
    def serving_counters(self) -> Tuple[int, object]:
        """Locked snapshot of ``(samples_served, scheduler)`` for stats builders.

        External readers (``repro.obs.rollup.session_stats``) must come
        through here rather than reading the guarded attributes directly —
        the race harness enforces exactly that.
        """
        with self._lock:
            return self.samples_served, self._scheduler

    @property
    def stats(self) -> Dict[str, object]:
        """Serving statistics: cache counters plus per-session totals.

        Built by :func:`repro.obs.rollup.session_stats` — the documented
        stable schema shared with every other stats surface.
        """
        return obs.session_stats(self)
