"""Kernel registry: named ensembles a serving process accepts traffic for.

Workloads register a kernel **once** — paying validation (PSD / nPSD /
partition-structure checks) at registration time instead of per request —
and then open :class:`~repro.service.session.SamplerSession` objects against
the registered name.  Registered matrices are defensively copied and frozen
(``writeable=False``) so the content fingerprint that keys the factorization
cache cannot silently go stale.

Lifecycle: explicit registrations live until :meth:`KernelRegistry.unregister`.
*Ephemeral* registrations — the auto-named entries ``repro.serve(matrix)``
creates — are reference-counted by the sessions that opened them and expire
``anonymous_ttl`` seconds after the last session closes (sweeps run inside
ordinary registry operations; no background thread).  This is what keeps a
long-running serving process that churns through kernels from accumulating
registrations (and pinning their matrices) forever.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dpp.kernels import validate_ensemble
from repro.service.cache import FactorizationCache
from repro.utils.fingerprint import kernel_fingerprint, partition_keys

__all__ = ["KERNEL_KINDS", "RegisteredKernel", "UpdateRecord", "KernelRegistry",
           "kernel_fingerprint", "updated_entry"]

#: distribution families the serving layer understands
KERNEL_KINDS = ("symmetric", "nonsymmetric", "partition", "lowrank")

#: default idle lifetime (seconds) of an ephemeral registration with no
#: open sessions; ``KernelRegistry(anonymous_ttl=...)`` overrides
DEFAULT_ANONYMOUS_TTL = 900.0


@dataclass(frozen=True)
class UpdateRecord:
    """One applied mutation in a kernel's fingerprint chain (metadata only).

    Records the op, the patch-vs-recompute decision taken, the delta payload
    size, and the chain fingerprint *after* the update — never the update's
    arrays, so a long-lived entry's log stays O(depth) bytes.
    """

    op: str
    decision: str
    delta_nbytes: int
    fingerprint: str


@dataclass
class RegisteredKernel:
    """One named kernel: the matrix, its family, and its content fingerprint.

    Incrementally updated kernels additionally carry their *chain* identity:
    ``epoch`` counts applied updates, ``base_fingerprint`` is the content
    fingerprint the chain started from (stable across updates — the cluster
    routes by it), and ``update_log`` records each link.  For a cold
    registration all three are at their defaults and ``fingerprint`` is the
    content fingerprint itself.
    """

    name: str
    kind: str
    matrix: np.ndarray
    fingerprint: str
    parts: Optional[Tuple[Tuple[int, ...], ...]] = None
    counts: Optional[Tuple[int, ...]] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    epoch: int = 0
    base_fingerprint: Optional[str] = None
    update_log: Tuple[UpdateRecord, ...] = ()

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def route_fingerprint(self) -> str:
        """The placement-stable identity: base of the chain, or self if cold."""
        return self.base_fingerprint or self.fingerprint


#: update-chain depth from which an update rebuilds its cached artifacts
#: lazily instead of patching them.  A dense kernel rebuilds from depth
#: ``min(n, 64)``: each secular patch carries ``O(ε)`` rounding, and ``n``
#: ``O(n²)`` patches cost one ``O(n³)`` rebuild.  A factor kernel's patches
#: are exact row edits, so it runs to 64.  The depth counts the whole chain
#: and never resets.
_REFACTOR_DEPTH = 64


def updated_entry(entry: RegisteredKernel, cache: FactorizationCache,
                  update) -> Tuple[RegisteredKernel, str]:
    """Apply one :class:`~repro.linalg.updates.KernelUpdate` to ``entry``.

    Returns ``(new_entry, decision)`` where ``decision`` is ``"patched"``
    (artifacts carried over incrementally from the predecessor's cache
    entry) or ``"recomputed"`` (cold lazy factorization: the chain reached
    the rebuild depth of ``_REFACTOR_DEPTH``, or the predecessor was
    already evicted).  A dense update other than ``weight · u uᵀ`` with
    ``weight >= 0``, which cannot leave the PSD / nPSD cone, is validated
    like a registration and refused with :class:`ValueError` before
    anything adopts it.  The new entry's ``fingerprint`` extends the chain
    (:meth:`KernelUpdate.chained_fingerprint`) and its ``epoch`` increments.
    The predecessor's cache entry stays; :meth:`KernelRegistry.apply_update`
    drops it once no registration serves it.

    This is the core shared by :meth:`KernelRegistry.apply_update`,
    standalone :class:`~repro.service.session.SamplerSession` updates, and
    shard nodes applying cluster deltas.
    """
    if entry.kind == "partition":
        raise ValueError("partition kernels do not support incremental updates "
                         "(their normalizer has no known update identity)")
    update.validate_for(entry.kind, entry.n)
    matrix = update.apply(entry.matrix, entry.kind)
    if entry.kind != "lowrank" and not (update.v is None and update.weight >= 0):
        validate_ensemble(matrix, symmetric=entry.kind == "symmetric")
    fingerprint = update.chained_fingerprint(entry.fingerprint)
    depth = len(entry.update_log) + 1
    if entry.kind == "lowrank":
        recompute = depth >= _REFACTOR_DEPTH
    else:
        recompute = depth >= min(_REFACTOR_DEPTH, matrix.shape[0])
    started = time.perf_counter()
    fact, decision = cache.adopt(
        entry.fingerprint, update, matrix=matrix, fingerprint=fingerprint,
        kind=entry.kind, patch=not recompute)
    seconds = time.perf_counter() - started
    if decision == "hit":
        decision = "patched"  # a racing update of identical content kept it warm
    record = UpdateRecord(op=update.op, decision=decision,
                          delta_nbytes=update.delta_nbytes,
                          fingerprint=fingerprint)
    new_entry = RegisteredKernel(
        name=entry.name, kind=entry.kind, matrix=fact.matrix,
        fingerprint=fingerprint, parts=entry.parts, counts=entry.counts,
        metadata=dict(entry.metadata), epoch=entry.epoch + 1,
        base_fingerprint=entry.route_fingerprint,
        update_log=entry.update_log + (record,))
    obs.record_kernel_update(entry.kind, decision, depth, seconds)
    return new_entry, decision


@dataclass
class _EphemeralState:
    """Refcount + idle timestamp of one auto-named registration."""

    sessions: int = 0
    idle_since: float = 0.0


class KernelRegistry:
    """Mutable name → :class:`RegisteredKernel` map sharing one cache.

    All operations are guarded by one registry lock (registration used to be
    start-up-only, but ephemeral ``serve(matrix)`` entries are now created
    and expired from concurrent request paths).  ``anonymous_ttl`` is the
    idle lifetime of ephemeral registrations: ``0`` unregisters as soon as
    the last session closes, ``None`` never expires them (the pre-TTL
    behavior); ``clock`` is injectable for tests and must be monotonic.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_entries", "_ephemeral")}

    def __init__(self, cache: Optional[FactorizationCache] = None, *,
                 anonymous_ttl: Optional[float] = DEFAULT_ANONYMOUS_TTL,
                 clock: Callable[[], float] = time.monotonic):
        if anonymous_ttl is not None and anonymous_ttl < 0:
            raise ValueError(f"anonymous_ttl must be nonnegative, got {anonymous_ttl}")
        self.cache = cache if cache is not None else FactorizationCache()
        self.anonymous_ttl = anonymous_ttl
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: Dict[str, RegisteredKernel] = {}
        self._ephemeral: Dict[str, _EphemeralState] = {}
        obs.register_kernel_registry(self)

    # ------------------------------------------------------------------ #
    def register(self, name: str, matrix: np.ndarray, *, kind: str = "symmetric",
                 parts: Optional[Sequence[Sequence[int]]] = None,
                 counts: Optional[Sequence[int]] = None,
                 validate: bool = True, overwrite: bool = False,
                 ephemeral: bool = False, pin: bool = False, warm: bool = False,
                 metadata: Optional[Dict[str, object]] = None) -> RegisteredKernel:
        """Register ``matrix`` under ``name``; validation happens here, once.

        Re-registering the same name with identical content returns the
        existing entry; different content requires ``overwrite=True`` (which
        also invalidates the old entry's cached factorization).
        ``ephemeral=True`` marks the entry for TTL-based auto-unregistration
        once no session holds it (``repro.serve(matrix)`` uses this for its
        auto-named registrations); re-registering an ephemeral name
        non-ephemerally promotes it to a permanent entry.  ``pin=True``
        additionally takes one session reference *atomically with the
        registration* — without it, an ``anonymous_ttl=0`` sweep racing
        between register and a separate :meth:`acquire` could reap the
        brand-new entry.  ``warm=True`` precomputes the kind's factorization
        artifacts (:meth:`~repro.service.cache.KernelFactorization.warm`)
        before returning, so the first draw is already warm; the computation
        runs outside the registry lock.
        """
        from repro.distributions.lowrank import LowRankKernel

        if isinstance(matrix, LowRankKernel):
            # a LowRankKernel carries its own kind: auto-promote the default
            if kind == "symmetric":
                kind = "lowrank"
            if kind != "lowrank":
                raise ValueError(
                    f"a LowRankKernel registers as kind='lowrank', not {kind!r}")
            matrix = matrix.factor
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
        if kind == "partition":
            if parts is None or counts is None:
                raise ValueError("partition kernels require parts= and counts=")
        elif parts is not None or counts is not None:
            raise ValueError(f"parts/counts are only valid for kind='partition', not {kind!r}")

        a = np.array(matrix, dtype=float, copy=True)
        if validate:
            if kind == "lowrank":
                # the registered matrix IS the (n, k) factor: validate shape,
                # finiteness and column rank in factor-sized time
                from repro.utils.validation import check_factor

                a = check_factor(a)
            else:
                validate_ensemble(a, symmetric=(kind != "nonsymmetric"))
        elif kind == "lowrank":
            # canonical layout even unvalidated: the content fingerprint
            # hashes bytes, and a fortran-ordered duplicate must not re-key
            a = np.ascontiguousarray(a)
        parts_key, counts_key = partition_keys(parts, counts)
        if kind == "partition":
            if validate:
                # structural checks (disjointness, coverage, feasible counts)
                # without building the torus node tables here — the
                # factorization cache computes them lazily.
                from repro.dpp.partition import PartitionDPP
                PartitionDPP(a, parts_key, counts_key, validate=False)
        a.flags.writeable = False
        # the single shared derivation (utils/fingerprint.kernel_fingerprint):
        # cluster clients route by this key before any node recomputes it
        fingerprint = kernel_fingerprint(a, kind=kind, parts=parts_key,
                                         counts=counts_key)

        if warm and self.cache.capacity == 0:
            # a capacity-0 cache stores nothing: warming would compute the
            # full artifact set onto a throwaway object — loudly skip
            # instead of silently wasting the eigendecompositions
            warnings.warn(
                f"register(warm=True) skipped for {name!r}: the registry's "
                "factorization cache has capacity=0 (storage disabled), so "
                "warmed artifacts could not be retained",
                RuntimeWarning, stacklevel=2)
            warm = False

        with self._lock:
            self._sweep_locked()
            existing = self._entries.get(name)
            entry = None
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    if ephemeral:
                        state = self._ephemeral.get(name)
                        if state is not None and pin:
                            state.sessions += 1
                    else:
                        self._ephemeral.pop(name, None)  # promote to permanent
                    entry = existing
                elif not overwrite:
                    raise ValueError(
                        f"kernel {name!r} is already registered with different content; "
                        "pass overwrite=True to replace it"
                    )
                else:
                    self._invalidate_unshared_locked(existing.fingerprint, excluding=name)

            if entry is None:
                entry = RegisteredKernel(
                    name=name, kind=kind, matrix=a, fingerprint=fingerprint,
                    parts=parts_key, counts=counts_key, metadata=dict(metadata or {}),
                )
                self._entries[name] = entry
                if ephemeral:
                    self._ephemeral[name] = _EphemeralState(sessions=1 if pin else 0,
                                                            idle_since=self._clock())
                else:
                    self._ephemeral.pop(name, None)
            warm_state = None
            if warm:
                state = self._ephemeral.get(name)
                if state is not None:
                    # hold a temporary session pin across the warm-up so a
                    # TTL sweep cannot reap the brand-new ephemeral entry
                    # (and invalidate its cache slot) mid-eigendecomposition
                    state.sessions += 1
                    warm_state = state
        if warm:
            # outside the registry lock: eigendecompositions must not block
            # concurrent registry traffic.  The factorization is single-flight
            # per artifact, so racing warmers do not duplicate work.
            try:
                self.cache.factorization(entry.matrix, fingerprint=entry.fingerprint).warm(
                    entry.kind, entry.parts, entry.counts)
            finally:
                with self._lock:
                    # drop the temporary pin only if it still belongs to OUR
                    # state object — a concurrent overwrite may have replaced
                    # the ephemeral state, and decrementing the replacement
                    # would unpin another session's live entry
                    if warm_state is not None and self._ephemeral.get(name) is warm_state:
                        warm_state.sessions = max(warm_state.sessions - 1, 0)
                        if warm_state.sessions == 0:
                            warm_state.idle_since = self._clock()
                        self._sweep_locked()
                    if self._entries.get(name) is not entry:
                        # a concurrent unregister/overwrite (or the sweep
                        # just above) invalidated this fingerprint while we
                        # warmed: do not leave a stale fully-materialized
                        # cache entry behind (unless another registration
                        # still shares the content)
                        self._invalidate_unshared_locked(entry.fingerprint)
        return entry

    def apply_update(self, name: str, update, *,
                     expect_fingerprint: Optional[str] = None) -> RegisteredKernel:
        """Mutate kernel ``name`` incrementally instead of re-registering.

        Atomically (under the registry lock) replaces the entry with its
        updated successor — concurrent updates to one name serialize, each
        seeing the previous chain tip, and lookups never observe a
        half-applied entry.  ``expect_fingerprint`` (when given) must match
        the current chain tip or the update is refused — the guard shard
        nodes use to detect a replica whose chain has diverged from the
        client's.  The predecessor's cache entry is invalidated unless
        another registration shares its content, so the cache holds the live
        epoch only; a session still serving the old epoch recomputes its
        artifacts from its entry snapshot on its next draw.
        :func:`updated_entry` decides between patching and a lazy rebuild.
        """
        with self._lock:
            entry = self.get(name)
            if expect_fingerprint is not None and entry.fingerprint != expect_fingerprint:
                raise ValueError(
                    f"kernel {name!r} chain is at {entry.fingerprint[:12]}..., "
                    f"update expected predecessor {expect_fingerprint[:12]}... "
                    "(stale or rebased replica)")
            new_entry, _decision = updated_entry(entry, self.cache, update)
            self._entries[name] = new_entry
            if new_entry.fingerprint != entry.fingerprint:
                self._invalidate_unshared_locked(entry.fingerprint)
            return new_entry

    def unregister(self, name: str) -> bool:
        """Remove ``name``; its cached factorization is invalidated unless
        another registration of identical content still uses it."""
        with self._lock:
            entry = self._entries.pop(name, None)
            self._ephemeral.pop(name, None)
            if entry is None:
                return False
            self._invalidate_unshared_locked(entry.fingerprint)
            return True

    def _invalidate_unshared_locked(self, fingerprint: str,
                                    excluding: Optional[str] = None) -> None:
        """Invalidate a cache entry only when no (other) registration shares
        its content fingerprint — the cache is content-addressed, so two
        registrations of equal content hold one factorization between them."""
        for other_name, other in self._entries.items():
            if other_name != excluding and other.fingerprint == fingerprint:
                return
        self.cache.invalidate(fingerprint)

    # ------------------------------------------------------------------ #
    # ephemeral lifecycle
    # ------------------------------------------------------------------ #
    def acquire(self, name: str) -> RegisteredKernel:
        """Look up ``name`` and, if ephemeral, pin it for one open session."""
        with self._lock:
            entry = self.get(name)
            state = self._ephemeral.get(name)
            if state is not None:
                state.sessions += 1
            return entry

    def release(self, name: str) -> None:
        """Drop one session's pin; starts the TTL clock at zero sessions.

        No-op for permanent or already-unregistered names, so sessions can
        release unconditionally on close.
        """
        with self._lock:
            state = self._ephemeral.get(name)
            if state is not None:
                state.sessions = max(state.sessions - 1, 0)
                if state.sessions == 0:
                    state.idle_since = self._clock()
            self._sweep_locked()

    def sweep(self) -> int:
        """Unregister expired ephemeral entries; returns how many were dropped.

        Runs automatically inside ``register``/``release``/``serve`` — this
        public form exists for explicit maintenance ticks in long-running
        services.
        """
        with self._lock:
            return self._sweep_locked()

    def _sweep_locked(self) -> int:
        if self.anonymous_ttl is None:
            return 0
        now = self._clock()
        expired = [name for name, state in self._ephemeral.items()
                   if state.sessions == 0 and now - state.idle_since >= self.anonymous_ttl]
        for name in expired:
            del self._ephemeral[name]
            entry = self._entries.pop(name, None)
            if entry is not None:
                self._invalidate_unshared_locked(entry.fingerprint)
        return len(expired)

    def is_ephemeral(self, name: str) -> bool:
        """Whether ``name`` is an ephemeral (TTL-managed) registration."""
        with self._lock:
            return name in self._ephemeral

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> RegisteredKernel:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(
                    f"no kernel registered under {name!r}; known: {sorted(self._entries)}"
                ) from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def census(self) -> Dict[str, int]:
        """Registration counts alone — no TTL sweeps, no cache traffic.

        The lightweight form the obs collector polls at export time;
        :meth:`registry_info` is the full diagnostic (and reads the cache).
        """
        with self._lock:
            return {"registered": len(self._entries),
                    "ephemeral": len(self._ephemeral)}

    def registry_info(self) -> Dict[str, object]:
        """One-call snapshot of this registry for serving-layer diagnostics.

        Rolls the shared cache's :meth:`~repro.service.cache.FactorizationCache.cache_info`
        together with the registration census — the per-node payload that
        ``repro.cluster``'s ``cluster_info()`` aggregates across shards.
        """
        with self._lock:
            kernels = [
                {"name": entry.name, "kind": entry.kind, "n": entry.n,
                 "fingerprint": entry.fingerprint,
                 "base_fingerprint": entry.route_fingerprint,
                 "epoch": entry.epoch,
                 "ephemeral": name in self._ephemeral}
                for name, entry in sorted(self._entries.items())
            ]
        return {
            "kernels": kernels,
            "registered": len(kernels),
            "ephemeral": sum(1 for k in kernels if k["ephemeral"]),
            "cache": self.cache.cache_info(),
        }

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    def session(self, name: str, **kwargs) -> "SamplerSession":
        """Open a :class:`~repro.service.session.SamplerSession` on ``name``.

        Sessions on ephemeral registrations pin them until
        :meth:`~repro.service.session.SamplerSession.close`.
        """
        from repro.service.session import SamplerSession

        entry = self.acquire(name)
        release = self.is_ephemeral(name)
        return SamplerSession(entry, self.cache, registry=self, release=release,
                              **kwargs)
