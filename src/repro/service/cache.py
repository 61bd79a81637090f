"""Factorization cache: memoized per-kernel preprocessing artifacts.

Every sampler in this repository front-loads the same expensive linear
algebra before any randomness happens: the eigendecomposition of the
symmetrized ensemble and what derives from it (a rank-revealing PSD factor
and its Gram companion, the size distribution), characteristic-polynomial
minor sums (the nonsymmetric DPP's cardinality), the torus-oracle node
tables (partition kernels and nonsymmetric k-DPPs), and a low-rank factor's
``k x k`` dual decomposition, whitened basis and proposal tables (the
intermediate sampler's, whose warm draw then costs ``O(√(n·k)·m)`` where
a pass over every row costs ``O(n·m)``).  Serving traffic against
a registered kernel should pay those costs once, not per request — the
amortization regime of Barthelmé–Tremblay–Amblard and of the
preprocess-then-sample line of work in PAPERS.md.

:class:`KernelFactorization` computes each artifact lazily **with the exact
routine the corresponding sampler would run**, so threading a cached artifact
back into a sampler yields bit-identical fixed-seed samples.  A dense
symmetric kernel is decomposed once, by
:func:`~repro.linalg.batch.symmetrized_eigh`, as in the samplers: the HKPV
samplers read the pair, and the k-DPP's spectrum, its factor
(:func:`~repro.linalg.batch.factor_from_eigh`) and the size distribution
derive from it.

:class:`FactorizationCache` is the content-addressed store: artifacts are
keyed by a SHA-256 fingerprint of the matrix bytes, entries are evicted LRU
once ``capacity`` is exceeded, and :meth:`~FactorizationCache.invalidate`
drops an entry explicitly (e.g. after a workload retrains its kernel).  All
operations are thread-safe; concurrent sessions serving the same kernel share
one entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.dpp.elementary import normalize_sizes
from repro.dpp.likelihood import all_principal_minor_sums
from repro.linalg.batch import factor_from_eigh, symmetrized_eigh
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.utils.fingerprint import array_fingerprint

__all__ = ["CacheStats", "KernelFactorization", "FactorizationCache"]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`FactorizationCache`.

    ``evictions`` counts entries dropped by the LRU ``capacity`` bound;
    ``invalidations`` counts entries dropped by
    :meth:`~FactorizationCache.invalidate` and :meth:`~FactorizationCache.clear`.

    ``update_patched`` / ``update_recomputed`` count :meth:`~FactorizationCache.adopt`
    decisions — incremental kernel updates whose artifacts were patched from
    the predecessor entry versus rebuilt cold (the update chain reached the
    registry's rebuild depth, or the predecessor was already evicted).
    The obs collector exports :meth:`as_dict` as it stands, and
    ``cluster_info()`` sums the same six keys
    (:data:`repro.obs.rollup.CACHE_TOTAL_KEYS`).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    update_patched: int = 0
    update_recomputed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class KernelFactorization:
    """Lazy, memoized preprocessing artifacts for one ensemble matrix.

    Artifacts materialize on first access and are retained for the lifetime
    of the object (the enclosing cache controls the object's lifetime).  All
    getters are thread-safe, and each artifact's computation is
    **single-flight**: when several sessions miss the same key concurrently,
    one thread computes while the rest wait for its result — and threads
    asking for *different* artifacts of the same kernel proceed in parallel
    instead of serializing behind one coarse lock (which is what the old
    hold-the-lock-while-computing implementation did, and what made two
    sessions warming one kernel pay the eigendecomposition twice... or wait
    on each other's unrelated artifacts).
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_values", "_inflight", "_stats")}

    #: per-artifact counter slots (see :meth:`artifact_stats`)
    _STAT_FIELDS = ("hits", "misses", "patched")

    def __init__(self, matrix: np.ndarray, fingerprint: Optional[str] = None):
        a = np.asarray(matrix, dtype=float)
        if a.flags.writeable:
            # Defensive copy: the fingerprint is computed from today's content,
            # so a caller mutating its matrix in place must not be able to
            # corrupt lazily materialized artifacts under the old key.
            a = a.copy()
            a.flags.writeable = False
        self.matrix = a
        self.fingerprint = fingerprint if fingerprint is not None else array_fingerprint(self.matrix)
        self.n = self.matrix.shape[0]
        self._lock = threading.Lock()
        self._values: Dict[object, object] = {}
        self._inflight: Dict[object, threading.Event] = {}
        #: per-artifact-kind [hits, misses, patched] counters
        self._stats: Dict[str, List[int]] = {}

    def _bump_locked(self, key: object, event: str) -> None:
        name = key if isinstance(key, str) else str(key[0])
        self._stats.setdefault(name, [0, 0, 0])[
            self._STAT_FIELDS.index(event)] += 1

    def _get(self, key: object, compute: Callable[[], object]):
        while True:
            with self._lock:
                if key in self._values:
                    self._bump_locked(key, "hits")
                    return self._values[key]
                waiter = self._inflight.get(key)
                if waiter is None:
                    waiter = threading.Event()
                    self._inflight[key] = waiter
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    value = compute()
                except BaseException:
                    with self._lock:
                        del self._inflight[key]
                    waiter.set()  # wake followers; one of them retries compute()
                    raise
                with self._lock:
                    self._values[key] = value
                    self._bump_locked(key, "misses")
                    del self._inflight[key]
                waiter.set()
                return value
            waiter.wait()
            # leader finished (or failed); loop re-checks the memo

    # ------------------------------------------------------------------ #
    # symmetric-kernel artifacts
    # ------------------------------------------------------------------ #
    @property
    def eigh_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        """``symmetrized_eigh(L)`` — the one decomposition of a symmetric kernel."""
        return self._get("eigh", lambda: symmetrized_eigh(self.matrix))

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum of :attr:`eigh_pair` — the exact array
        :attr:`repro.dpp.symmetric.SymmetricKDPP.eigenvalues` computes."""
        return self.eigh_pair[0]

    @property
    def size_distribution(self) -> np.ndarray:
        """``P[|S| = t]`` of the symmetric DPP — matches
        :func:`repro.dpp.elementary.dpp_size_distribution` bitwise."""
        return self._get("size_distribution", lambda: normalize_sizes(
            elementary_symmetric_polynomials(self.eigenvalues)))

    @property
    def factor(self) -> np.ndarray:
        """Rank-revealing ``B`` with ``L ≈ B Bᵀ``, from :attr:`eigh_pair`."""
        return self._get("factor", lambda: factor_from_eigh(*self.eigh_pair))

    @property
    def factor_gram(self) -> np.ndarray:
        """``BᵀB`` companion of :attr:`factor`."""
        return self._get("factor_gram", lambda: self.factor.T @ self.factor)

    # ------------------------------------------------------------------ #
    # nonsymmetric-kernel artifacts
    # ------------------------------------------------------------------ #
    @property
    def minor_sums(self) -> np.ndarray:
        """``[Σ_{|S|=j} det(L_S)]_{j=0..n}`` via the characteristic polynomial."""
        return self._get("minor_sums", lambda: all_principal_minor_sums(self.matrix))

    @property
    def nonsym_size_distribution(self) -> np.ndarray:
        """Cardinality distribution of the nonsymmetric DPP — matches
        :meth:`repro.dpp.nonsymmetric.NonsymmetricDPP.cardinality_distribution`."""
        return self._get("nonsym_size_distribution", lambda: normalize_sizes(
            np.clip(self.minor_sums, 0.0, None)))

    # ------------------------------------------------------------------ #
    # low-rank (factor) artifacts — ``matrix`` is the ``n x k`` factor ``B``
    # ------------------------------------------------------------------ #
    @property
    def lowrank_gram(self) -> np.ndarray:
        """Dual ``k x k`` Gram ``BᵀB`` — the exact array a
        :class:`~repro.distributions.lowrank.LowRankDPP`'s or ``LowRankKDPP``'s
        ``factor_gram`` computes."""
        return self._get("lowrank_gram", lambda: self.matrix.T @ self.matrix)

    @property
    def lowrank_dual(self) -> Tuple[np.ndarray, np.ndarray]:
        """``symmetrized_eigh`` of :attr:`lowrank_gram` — the pair a cold
        low-rank distribution's factor spectrum and the cold whitening
        compute, so cached and cold draws agree bitwise."""
        return self._get("lowrank_dual", lambda: symmetrized_eigh(self.lowrank_gram))

    @property
    def lowrank_whitened(self) -> Tuple[np.ndarray, np.ndarray]:
        """Whitened ``(λ_kept, U)`` intermediate-sampling basis.

        Computed from :attr:`lowrank_dual` via
        :func:`repro.dpp.intermediate.lowrank_intermediate_basis` — identical
        to the cold path's whitening (which runs the same Gram + clipped
        ``eigh``), so cached serving replays cold-path samples bitwise.  One
        ``O(n·k²)`` matmul per kernel epoch; :attr:`lowrank_proposal_tables`
        derives from it.
        """
        from repro.dpp.intermediate import lowrank_intermediate_basis

        return self._get("lowrank_whitened", lambda: lowrank_intermediate_basis(
            self.matrix, dual=self.lowrank_dual))

    @property
    def lowrank_proposal_tables(self) -> np.ndarray:
        """Cumulative block leverages of :attr:`lowrank_whitened`'s coordinates.

        :func:`repro.dpp.intermediate.proposal_tables`, the table a cold
        intermediate draw builds for itself: ``k x ⌈n/b⌉`` floats, ``b ≈
        √(n/k)``, from one ``O(n·k)`` pass.  A warm draw searches its leverage
        law through it instead of an ``O(n·m)`` pass over every row.
        """
        from repro.dpp.intermediate import proposal_tables

        return self._get("lowrank_proposal_tables",
                         lambda: proposal_tables(self.lowrank_whitened[1]))

    @property
    def lowrank_size_distribution(self) -> np.ndarray:
        """``P[|S| = t]`` of the low-rank DPP — matches
        :meth:`repro.distributions.lowrank.LowRankDPP.cardinality_distribution`."""
        def compute():
            n, k = self.matrix.shape
            esp = elementary_symmetric_polynomials(self.lowrank_dual[0], max_order=min(k, n))
            weights = np.zeros(n + 1, dtype=float)
            weights[:esp.size] = np.clip(esp, 0.0, None)
            return normalize_sizes(weights)
        return self._get("lowrank_size_distribution", compute)

    # ------------------------------------------------------------------ #
    # partition-kernel artifacts
    # ------------------------------------------------------------------ #
    def partition_tables(self, parts: Sequence[Sequence[int]],
                         counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Node tables of the Partition-DPP torus oracle
        (:func:`repro.dpp.partition.torus_tables`): their stacked inverses
        are the dominant preprocessing cost of the partition sampler, and of
        the nonsymmetric k-DPP, whose tables are the one part ``[n]`` with
        count ``k``.  Memoized for the latest ``(parts, counts)`` only: a
        nonsymmetric kernel served at many ``k`` keeps one ``O(n³)`` set."""
        from repro.dpp.partition import torus_tables  # deferred: dpp -> service has no cycle, keep it that way

        parts_key = tuple(tuple(sorted(int(i) for i in part)) for part in parts)
        counts_key = tuple(int(c) for c in counts)
        key = ("partition_tables", parts_key, counts_key)
        with self._lock:  # dropped before the new set is built, so one set is alive
            for stale in [other for other in self._values
                          if isinstance(other, tuple) and other[0] == key[0] and other != key]:
                del self._values[stale]
        return self._get(key, lambda: torus_tables(self.matrix, parts_key, counts_key))

    # ------------------------------------------------------------------ #
    def warm(self, kind: str = "symmetric",
             parts: Optional[Sequence[Sequence[int]]] = None,
             counts: Optional[Sequence[int]] = None) -> "KernelFactorization":
        """Eagerly materialize every artifact the ``kind``'s samplers use.

        The cache is lazy by default — each artifact computes on first
        access, i.e. during the first draw that needs it.  Warm-up, which
        the serving layer runs through :meth:`SamplerSession.warm` alone,
        moves that cost before the first request, so a serving process can
        pay preprocessing before taking traffic instead of inside the first
        request's latency.  Values are identical either way — warm-up only
        calls the same lazy getters.
        """
        # each getter pulls in what it derives from: eigh and factor, or minor_sums
        if kind == "symmetric":
            self.size_distribution
            self.factor_gram
        elif kind == "nonsymmetric":
            self.nonsym_size_distribution
        elif kind == "lowrank":
            self.lowrank_gram
            self.lowrank_dual
            self.lowrank_whitened
            self.lowrank_proposal_tables
            self.lowrank_size_distribution
        elif kind == "partition":
            if parts is None or counts is None:
                raise ValueError("warming a partition kernel requires parts= and counts=")
            self.partition_tables(parts, counts)
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
        return self

    # ------------------------------------------------------------------ #
    # incremental updates (streaming kernels)
    # ------------------------------------------------------------------ #
    def apply_update(self, update, *, matrix: np.ndarray, fingerprint: str,
                     kind: str) -> "KernelFactorization":
        """A factorization of the mutated kernel, artifacts patched from here.

        ``matrix`` must be the mutated content (``update.apply`` of this
        entry's matrix) and ``fingerprint`` its chain fingerprint.  A
        symmetric entry's materialized ``eigh`` is carried over by the
        secular eigen-update (``O(n²)``), and its materialized size
        distribution, factor and Gram are re-derived from the patched pair by
        the getters a cold entry runs; a ``lowrank`` entry re-derives its
        dual Gram and decomposition, whitened basis, proposal tables and size
        distribution from the patched factor (``O(n·k²)``).  Nothing
        runs a fresh ``O(n³)`` factorization.  Artifacts this entry had not
        materialized stay lazy in the result.  ``self`` is not modified, so
        in-flight draws keep consuming the predecessor entry untouched.
        """
        from repro.linalg.updates import rank_one_eigh_update

        new = KernelFactorization(matrix, fingerprint=fingerprint)
        with self._lock:
            sources = dict(self._values)

        if kind == "lowrank":
            # the patched factor IS the new matrix
            derived = ("lowrank_gram", "lowrank_dual", "lowrank_whitened",
                       "lowrank_proposal_tables", "lowrank_size_distribution")
        elif kind == "symmetric" and "eigh" in sources:
            lam, vec = sources["eigh"]
            for z, rho in update.rank_one_terms(kind):
                lam, vec = rank_one_eigh_update(lam, vec, z, rho)
            # the registry refused any update that leaves the PSD cone, so
            # only the patch's rounding can dip below zero here
            new._install_patched("eigh", (self._freeze(np.clip(lam, 0.0, None)),
                                          self._freeze(vec)))
            derived = ("size_distribution", "factor", "factor_gram")
        else:
            # no eigh to patch, or a nonsymmetric kernel: its charpoly memos
            # and torus tables have no cheap incremental form
            derived = ()
        # the getters a cold entry runs: on the patched pair, or on the new
        # factor itself, which makes a factor kernel's bitwise a cold entry's
        for key in derived:
            if key in sources:
                getattr(new, key)
        return new

    @staticmethod
    def _freeze(value: np.ndarray) -> np.ndarray:
        out = np.ascontiguousarray(np.asarray(value, dtype=float))
        if out.base is not None or not out.flags.owndata:
            out = out.copy()
        if out.flags.writeable:
            out.flags.writeable = False
        return out

    def _install_patched(self, key: str, value: object) -> None:
        with self._lock:
            if key not in self._values:
                self._values[key] = value
                self._bump_locked(key, "patched")

    def artifact_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-artifact-kind counters: hits/misses/patched.

        ``patched`` counts the ``eigh`` pairs :meth:`apply_update` carried
        over by the secular update, ``misses`` every computation by a getter,
        including what an update re-derives from a patched pair — the
        breakdown that makes update-patched vs recomputed decompositions
        distinguishable in dashboards (surfaced through
        :meth:`FactorizationCache.cache_info`).
        """
        with self._lock:
            return {name: dict(zip(self._STAT_FIELDS, counts))
                    for name, counts in sorted(self._stats.items())}

    @property
    def nbytes(self) -> int:
        """Bytes held by materialized artifacts (excluding the matrix itself)."""
        with self._lock:
            total = 0
            for value in self._values.values():
                items = value if isinstance(value, tuple) else (value,)
                for item in items:
                    if isinstance(item, np.ndarray):
                        total += item.nbytes
            return total

    @property
    def materialized(self) -> List[str]:
        """Names of artifacts computed so far (diagnostics)."""
        with self._lock:
            return [str(k) for k in self._values]


class FactorizationCache:
    """Content-addressed LRU cache of :class:`KernelFactorization` objects.

    ``capacity`` bounds the number of cached kernels (LRU eviction, counted
    in ``stats.evictions``); ``capacity=0`` disables storage entirely — every
    lookup returns a fresh factorization, which is the "cache off" mode used
    to verify that caching never changes samples.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_entries",)}

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise ValueError(f"capacity must be nonnegative, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, KernelFactorization]" = OrderedDict()
        self.stats = CacheStats()
        # weakly tracked by the obs collector, which re-exports these
        # counters at snapshot time — no per-operation metric writes here
        obs.register_cache(self)

    # ------------------------------------------------------------------ #
    def factorization(self, matrix: np.ndarray, *,
                      fingerprint: Optional[str] = None) -> KernelFactorization:
        """Get-or-create the factorization for ``matrix`` (LRU touch)."""
        key = fingerprint if fingerprint is not None else array_fingerprint(
            np.asarray(matrix, dtype=float))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
            entry = KernelFactorization(matrix, fingerprint=key)
            self._insert_locked(key, entry)
            return entry

    # ------------------------------------------------------------------ #
    def adopt(self, source_fingerprint: str, update, *, matrix: np.ndarray,
              fingerprint: str, kind: str,
              patch: bool = True) -> Tuple[KernelFactorization, str]:
        """Entry for an incrementally updated kernel; returns ``(entry, decision)``.

        When ``patch`` is true and the predecessor
        (``source_fingerprint``) is still cached, its materialized artifacts
        are carried over via :meth:`KernelFactorization.apply_update`
        (decision ``"patched"``); otherwise, or when nothing carried over, the
        new entry is a cold lazy one (``"recomputed"``).  The predecessor
        entry is left in place; the registry invalidates it once no
        registration serves it
        (:meth:`~repro.service.registry.KernelRegistry.apply_update`).  The
        new entry is inserted like any other; patch work runs outside the
        cache lock.
        """
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                self.stats.hits += 1
                self._entries.move_to_end(fingerprint)
                return existing, "hit"
            source = self._entries.get(source_fingerprint) if patch else None
        if source is not None:
            entry = source.apply_update(update, matrix=matrix,
                                        fingerprint=fingerprint, kind=kind)
        else:
            entry = KernelFactorization(matrix, fingerprint=fingerprint)
        decision = "patched" if entry.materialized else "recomputed"
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                return existing, "hit"  # racing adopt of the same update won
            if decision == "patched":
                self.stats.update_patched += 1
            else:
                self.stats.update_recomputed += 1
            self._insert_locked(fingerprint, entry)
        return entry, decision

    def _insert_locked(self, key: str, entry: KernelFactorization) -> None:
        """Store ``entry`` as most recently used, evicting LRU entries past
        ``capacity`` (stores nothing when the cache is off)."""
        if self.capacity == 0:
            return
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def cache_info(self) -> Dict[str, object]:
        """One-call diagnostic snapshot: bound, occupancy, and counters.

        ``"artifacts"`` breaks the counters down per artifact kind
        (``eigh``, ``factor``, ``lowrank_gram``, ...) with
        hits/misses/patched slots aggregated across live entries —
        the view that distinguishes update-patched artifacts from cold
        recomputes in dashboards.
        """
        with self._lock:
            entries = list(self._entries.values())
            info: Dict[str, object] = {
                "entries": len(entries),
                "capacity": self.capacity,
                "nbytes": sum(entry.nbytes for entry in entries),
            }
            info.update(self.stats.as_dict())
            artifacts: Dict[str, Dict[str, int]] = {}
            for entry in entries:
                for name, counts in entry.artifact_stats().items():
                    slot = artifacts.setdefault(
                        name, dict.fromkeys(KernelFactorization._STAT_FIELDS, 0))
                    for event, value in counts.items():
                        slot[event] += value
            info["artifacts"] = artifacts
            return info

    def invalidate(self, target: Union[str, np.ndarray]) -> bool:
        """Drop the entry for a fingerprint or matrix; True if one existed."""
        key = target if isinstance(target, str) else array_fingerprint(
            np.asarray(target, dtype=float))
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.stats.invalidations += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, target: Union[str, np.ndarray]) -> bool:
        key = target if isinstance(target, str) else array_fingerprint(
            np.asarray(target, dtype=float))
        with self._lock:
            return key in self._entries

    def fingerprints(self) -> List[str]:
        """Cached fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes of materialized artifacts across entries."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.nbytes for entry in entries)
