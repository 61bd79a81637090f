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

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.dpp.kernels import validate_ensemble
from repro.engine import BackendLike
from repro.service.cache import FactorizationCache
from repro.utils.fingerprint import kernel_fingerprint, partition_keys

__all__ = ["KERNEL_KINDS", "KernelConflict", "RegisteredKernel", "UpdateRecord",
           "KernelRegistry", "kernel_entry", "kernel_fingerprint"]

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

    def describe(self) -> Dict[str, object]:
        """The entry without its matrix: name, family, size and chain identity.

        The one description of a registration that ``registry_info`` lists and
        a shard node replies with (``register`` / ``update`` / ``catalog`` /
        ``export``); the cluster client reads it back into its catalog.
        """
        return {"name": self.name, "kind": self.kind, "n": self.n,
                "fingerprint": self.fingerprint,
                "base_fingerprint": self.route_fingerprint, "epoch": self.epoch}


#: update-chain depth from which an update rebuilds its cached artifacts
#: lazily instead of patching them.  A dense kernel rebuilds from depth
#: ``min(n, 64)``: each secular patch carries ``O(ε)`` rounding, and ``n``
#: ``O(n²)`` patches cost one ``O(n³)`` rebuild.  A factor kernel's patches
#: are exact row edits, so it runs to 64.  The depth counts the whole chain
#: and never resets.
_REFACTOR_DEPTH = 64


def kernel_entry(kernel, name: Optional[str] = None, *, kind: Optional[str] = None,
                 parts: Optional[Sequence[Sequence[int]]] = None,
                 counts: Optional[Sequence[int]] = None) -> RegisteredKernel:
    """The front door of every serving entry point: ``kernel`` as a cold entry.

    ``kernel`` is an ensemble matrix or a
    :class:`~repro.distributions.lowrank.LowRankKernel`, which serves its
    ``n x r`` factor as kind ``"lowrank"`` (its default kind; a matrix's is
    ``"symmetric"``).  The entry holds the float array (C-contiguous for a
    factor, whose fingerprint hashes its bytes), the canonical partition
    structure, :func:`kernel_fingerprint` of them, and ``name`` or else the
    auto-name ``kernel-<fingerprint[:12]>``.  Nothing is validated or
    copied: :meth:`KernelRegistry.register` does both, and
    :meth:`~repro.cluster.client.ClusterClient.register` routes by this
    fingerprint before a node recomputes it.
    """
    from repro.distributions.lowrank import LowRankKernel

    if isinstance(kernel, LowRankKernel):
        if kind not in (None, "lowrank"):
            raise ValueError(f"a LowRankKernel serves as kind='lowrank', not {kind!r}")
        kind, kernel = "lowrank", kernel.factor
    kind = "symmetric" if kind is None else kind
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KERNEL_KINDS}")
    if kind == "partition":
        if parts is None or counts is None:
            raise ValueError("partition kernels require parts= and counts=")
    elif parts is not None or counts is not None:
        raise ValueError(f"parts/counts are only valid for kind='partition', not {kind!r}")
    matrix = np.ascontiguousarray(kernel, dtype=float) if kind == "lowrank" \
        else np.asarray(kernel, dtype=float)
    parts_key, counts_key = partition_keys(parts, counts)
    fingerprint = kernel_fingerprint(matrix, kind=kind, parts=parts_key, counts=counts_key)
    return RegisteredKernel(name=name if name is not None else f"kernel-{fingerprint[:12]}",
                            kind=kind, matrix=matrix, fingerprint=fingerprint,
                            parts=parts_key, counts=counts_key)


def _refuse_registration_args(kernel: str, registered_kind: str, *,
                              name: Optional[str], kind: Optional[str],
                              parts: Optional[Sequence[Sequence[int]]],
                              counts: Optional[Sequence[int]]) -> None:
    """Refuse registration-time arguments when serving the registered name ``kernel``.

    ``repro.serve`` and ``repro.serve_cluster`` serve a registered name as
    it stands: ``name=`` / ``parts=`` / ``counts=`` apply only when
    registering a matrix, and a ``kind=`` other than ``registered_kind``
    would sample a different family than asked for.
    """
    if name is not None or parts is not None or counts is not None:
        raise ValueError("name=/parts=/counts= apply when registering a matrix; "
                         f"{kernel!r} is already registered")
    if kind is not None and kind != registered_kind:
        raise ValueError(
            f"kernel {kernel!r} is registered as kind={registered_kind!r}, not {kind!r}")


class KernelConflict(ValueError):
    """A name is registered with other content than a registration brought.

    ``epoch`` counts the updates the registered entry has absorbed: after
    ``serve(L).update(u)`` the auto-name of ``L`` holds the updated kernel,
    so a second ``serve(L)`` lands here.  The message gives the ways forward
    of the front door that raised it: ``front`` is ``"serve"`` or
    ``"serve_cluster"``, which take no ``overwrite=``, or ``None`` for
    :meth:`KernelRegistry.register`, the one caller that can pass it.
    """

    def __init__(self, name: str, epoch: int, front: Optional[str] = None):
        super().__init__(name, epoch, front)
        self.name, self.epoch, self.front = name, epoch, front

    def __str__(self) -> str:
        door = self.front or "serve"
        if self.epoch:
            text = (f"kernel {self.name!r} has absorbed {self.epoch} update(s) since it was "
                    f"registered, so it no longer holds this content: {door}({self.name!r}) "
                    f"serves the updated kernel, and {door}(matrix, name=...) registers "
                    "the matrix under a new name")
        else:
            text = (f"kernel {self.name!r} is already registered with different content; "
                    f"{door}(matrix, name=...) registers the matrix under another name")
        return text if self.front else f"{text}, or pass overwrite=True to replace it"


@dataclass
class _EphemeralState:
    """Refcount + idle timestamp of one auto-named registration."""

    sessions: int = 0
    idle_since: float = 0.0


class KernelRegistry:
    """Mutable name → :class:`RegisteredKernel` map sharing one cache.

    The one owner of a served kernel's lifecycle: :meth:`register` admits
    it, :meth:`session` (and ``repro.serve``) open the
    :class:`~repro.service.session.SamplerSession` objects that draw from
    it, :meth:`apply_update` makes each successor epoch, and
    :meth:`release` / :meth:`unregister` / the TTL sweep retire it.
    All operations are guarded by one registry lock (ephemeral
    ``serve(matrix)`` entries are created and expired from concurrent
    request paths).  ``anonymous_ttl`` is the
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
    def register(self, name: Optional[str], matrix: np.ndarray, *, kind: Optional[str] = None,
                 parts: Optional[Sequence[Sequence[int]]] = None,
                 counts: Optional[Sequence[int]] = None,
                 validate: bool = True, overwrite: bool = False,
                 ephemeral: bool = False) -> RegisteredKernel:
        """Register ``matrix`` under ``name``; validation happens here, once.

        ``name``, ``matrix`` and ``kind``/``parts``/``counts`` are read as
        :func:`kernel_entry` reads them (``name=None`` is the auto-name).
        Re-registering the same name with
        identical content returns the existing entry; different content
        requires ``overwrite=True`` (which also invalidates the old entry's
        cached factorization).  ``ephemeral=True`` marks the entry for
        TTL-based auto-unregistration once no session holds it, and takes
        one session pin for the caller atomically with the registration
        (a separate :meth:`session` could lose the brand-new entry to an
        ``anonymous_ttl=0`` sweep): hand the entry to one
        :class:`~repro.service.session.SamplerSession`, whose ``close``
        releases the pin, as ``repro.serve(matrix)`` does with its
        auto-named registrations.  Re-registering an ephemeral name
        non-ephemerally promotes it to a permanent entry.  Warm-up is
        :meth:`~repro.service.session.SamplerSession.warm` on a session.
        """
        cold = kernel_entry(matrix, name, kind=kind, parts=parts, counts=counts)
        a = np.array(cold.matrix, copy=True)
        if validate:
            if cold.kind == "lowrank":
                # the registered matrix IS the (n, r) factor: validate shape,
                # finiteness and column rank in factor-sized time
                from repro.utils.validation import check_factor

                check_factor(a)
            else:
                validate_ensemble(a, symmetric=(cold.kind != "nonsymmetric"))
            if cold.kind == "partition":
                # structural checks (disjointness, coverage, feasible counts)
                # without building the torus node tables here — the
                # factorization cache computes them lazily.
                from repro.dpp.partition import PartitionDPP
                PartitionDPP(a, cold.parts, cold.counts, validate=False)
        a.flags.writeable = False
        entry = dataclasses.replace(cold, matrix=a)

        with self._lock:
            self._sweep_locked()
            existing = self._entries.get(entry.name)
            if existing is not None and existing.fingerprint == entry.fingerprint:
                state = self._ephemeral.get(entry.name)
                if not ephemeral:
                    self._ephemeral.pop(entry.name, None)  # promote to permanent
                elif state is not None:
                    state.sessions += 1
                return existing
            if existing is not None:
                if not overwrite:
                    raise KernelConflict(entry.name, existing.epoch)
                self._invalidate_unshared_locked(existing.fingerprint, excluding=entry.name)
            self._entries[entry.name] = entry
            if ephemeral:
                self._ephemeral[entry.name] = _EphemeralState(sessions=1, idle_since=self._clock())
            else:
                self._ephemeral.pop(entry.name, None)
            return entry

    def apply_update(self, name: str, update, *,
                     expect_fingerprint: Optional[str] = None) -> RegisteredKernel:
        """Mutate kernel ``name`` by one :class:`~repro.linalg.updates.KernelUpdate`.

        The only code that makes a successor epoch.  Atomically (under the
        registry lock) replaces the entry with its updated successor —
        concurrent updates to one name serialize, each seeing the previous
        chain tip, and lookups never observe a half-applied entry.
        ``expect_fingerprint`` (when given) must match the current chain tip
        or the update is refused — the guard shard nodes use to detect a
        replica whose chain has diverged from the client's.  A dense update
        other than ``weight · u uᵀ`` with ``weight >= 0``, which cannot
        leave the PSD / nPSD cone, is validated like a registration and
        refused with :class:`ValueError` before anything adopts it.

        The successor's cached artifacts are patched from the predecessor's
        (``"patched"`` in its :class:`UpdateRecord`), or rebuilt lazily
        (``"recomputed"``) once the chain reaches the rebuild depth of
        ``_REFACTOR_DEPTH`` or when the predecessor was already evicted.
        Its ``fingerprint`` extends the chain
        (:meth:`KernelUpdate.chained_fingerprint`) and its ``epoch``
        increments.  The predecessor's cache entry is invalidated unless
        another registration shares its content, so the cache holds the live
        epoch only; a session still serving the old epoch recomputes its
        artifacts from its entry snapshot and keeps them itself.
        """
        with self._lock:
            entry = self.get(name)
            if expect_fingerprint is not None and entry.fingerprint != expect_fingerprint:
                raise ValueError(
                    f"kernel {name!r} chain is at {entry.fingerprint[:12]}..., "
                    f"update expected predecessor {expect_fingerprint[:12]}... "
                    "(stale or rebased replica)")
            if entry.kind == "partition":
                raise ValueError("partition kernels do not support incremental updates "
                                 "(their normalizer has no known update identity)")
            update.validate_for(entry.kind, entry.n)
            matrix = update.apply(entry.matrix, entry.kind)
            if entry.kind != "lowrank" and not (update.v is None and update.weight >= 0):
                validate_ensemble(matrix, symmetric=entry.kind == "symmetric")
            fingerprint = update.chained_fingerprint(entry.fingerprint)
            depth = len(entry.update_log) + 1
            rebuild_depth = _REFACTOR_DEPTH if entry.kind == "lowrank" \
                else min(_REFACTOR_DEPTH, matrix.shape[0])
            started = time.perf_counter()
            fact, decision = self.cache.adopt(
                entry.fingerprint, update, matrix=matrix, fingerprint=fingerprint,
                kind=entry.kind, patch=depth < rebuild_depth)
            seconds = time.perf_counter() - started
            if decision == "hit":
                decision = "patched"  # an equal-content kernel's identical update kept it warm
            record = UpdateRecord(op=update.op, decision=decision,
                                  delta_nbytes=update.delta_nbytes, fingerprint=fingerprint)
            new_entry = dataclasses.replace(
                entry, matrix=fact.matrix, fingerprint=fingerprint, epoch=entry.epoch + 1,
                base_fingerprint=entry.route_fingerprint,
                update_log=entry.update_log + (record,))
            obs.record_kernel_update(entry.kind, decision, depth, seconds)
            self._entries[name] = new_entry
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

    # ------------------------------------------------------------------ #
    def get(self, name: str) -> RegisteredKernel:
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise KeyError(
                    f"no kernel registered under {name!r}; known: {sorted(self._entries)}"
                ) from None

    def is_live(self, entry: RegisteredKernel) -> bool:
        """Whether ``entry`` is the epoch its name serves now."""
        with self._lock:
            current = self._entries.get(entry.name)
        return current is not None and current.fingerprint == entry.fingerprint

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
            kernels = [{**entry.describe(), "ephemeral": name in self._ephemeral}
                       for name, entry in sorted(self._entries.items())]
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
    def session(self, name: str, *, backend: BackendLike = None) -> "SamplerSession":
        """Open a :class:`~repro.service.session.SamplerSession` on ``name``.

        Sessions on ephemeral registrations pin them until
        :meth:`~repro.service.session.SamplerSession.close`.
        """
        from repro.service.session import SamplerSession

        with self._lock:
            entry = self.get(name)
            state = self._ephemeral.get(name)
            if state is not None:
                state.sessions += 1
        return SamplerSession(self, entry, backend=backend)
