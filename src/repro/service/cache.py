"""Factorization cache: the one memo of a served kernel epoch.

Every sampler in this repository front-loads the same expensive linear
algebra before any randomness happens: the eigendecomposition of the
symmetrized ensemble and what derives from it (a rank-revealing PSD factor,
its Gram and the Gram's eigendecomposition, the size distribution),
principal-minor sums (the nonsymmetric DPP's cardinality),
the torus-oracle node tables (partition kernels and nonsymmetric k-DPPs),
a low-rank factor's whitened basis and proposal tables (the
intermediate sampler's, whose warm draw then costs ``O(√(n·k)·m)`` where a
pass over every row costs ``O(n·m)``), and the step table of a k-DPP's
phase-1 walk over either spectrum.  Serving traffic against a
registered kernel should pay those costs once, not per request — the
amortization regime of Barthelmé–Tremblay–Amblard and of the
preprocess-then-sample line of work in PAPERS.md.

:class:`KernelFactorization` computes each artifact lazily **with the exact
routine the corresponding sampler would run**, so threading a cached artifact
back into a sampler yields bit-identical fixed-seed samples.  A dense
symmetric kernel is decomposed once, by
:func:`~repro.linalg.batch.symmetrized_eigh`, as in the samplers: the HKPV
samplers read the pair, and the spectrum, the factor
(:func:`~repro.linalg.batch.factor_from_eigh`) and the size distribution
derive from it.  A low-rank kernel's factor is its matrix.  Either way the
factor's Gram and that Gram's eigendecomposition are artifacts too.  The
factorization also builds each served distribution
(:meth:`KernelFactorization.distribution`), once per epoch and ``k``, and
every session of the epoch draws from that one object; sessions keep no
memo of their own.

:class:`FactorizationCache` is the content-addressed store: artifacts are
keyed by a SHA-256 fingerprint of the kernel, entries are evicted LRU
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
from repro.distributions.base import SubsetDistribution
from repro.distributions.lowrank import LowRankDPP, LowRankKDPP, LowRankKernel
from repro.dpp.elementary import spectrum_sizes
from repro.dpp.intermediate import lowrank_intermediate_basis, proposal_tables
from repro.dpp.nonsymmetric import NonsymmetricDPP, NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP, torus_tables
from repro.dpp.spectral import StepTable, kdpp_step_table
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.linalg.batch import EighPair, factor_from_eigh, symmetrized_eigh
from repro.utils.fingerprint import kernel_fingerprint, partition_keys

__all__ = ["CacheStats", "KernelFactorization", "FactorizationCache"]

#: per kind, what :meth:`KernelFactorization.warm` materializes, and what
#: :meth:`KernelFactorization.apply_update` re-derives from the patched
#: ``eigh`` or factor where the predecessor had it.  Each getter pulls in
#: what it derives from.  A k-DPP draw's phase-1 step table
#: (:meth:`KernelFactorization.kdpp_steps`) is not listed: it depends on
#: ``k``, which neither knows, so the epoch's first k-DPP draw builds it.
_ARTIFACTS: Dict[str, Tuple[str, ...]] = {
    "symmetric": ("factor", "factor_gram", "gram_eigh", "size_distribution"),
    "lowrank": ("factor_gram", "gram_eigh", "lowrank_whitened",
                "lowrank_proposal_tables", "size_distribution"),
    "nonsymmetric": ("size_distribution",),
    "partition": ("node_tables",),
}


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
    """Lazy, memoized artifacts and served distributions of one kernel epoch.

    ``kind`` (and a partition kernel's ``parts`` and ``counts``) are the
    registered entry's; a bare matrix is a symmetric kernel.  Artifacts
    materialize on first access and are retained for the lifetime of the
    object (the enclosing cache controls the object's lifetime); the one
    that depends on ``k``, a k-DPP's phase-1 step table
    (:meth:`kdpp_steps`), is kept once, for the largest ``k`` drawn.  All
    getters are thread-safe, and each artifact's computation is
    **single-flight**: when several sessions miss the same key concurrently,
    one thread computes while the rest wait for its result — and threads
    asking for *different* artifacts of the same kernel proceed in parallel
    instead of serializing behind one coarse lock.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_values", "_inflight", "_stats")}

    #: per-artifact counter slots (see :meth:`artifact_stats`)
    _STAT_FIELDS = ("hits", "misses", "patched")

    def __init__(self, matrix: np.ndarray, fingerprint: Optional[str] = None, *,
                 kind: str = "symmetric",
                 parts: Optional[Sequence[Sequence[int]]] = None,
                 counts: Optional[Sequence[int]] = None):
        if kind not in _ARTIFACTS:
            raise ValueError(f"unknown kernel kind {kind!r}")
        if (kind == "partition") != (parts is not None and counts is not None):
            raise ValueError("parts= and counts= go with kind='partition', and it needs both")
        a = np.asarray(matrix, dtype=float)
        if a.flags.writeable:
            # Defensive copy: the fingerprint is computed from today's content,
            # so a caller mutating its matrix in place must not be able to
            # corrupt lazily materialized artifacts under the old key.
            a = a.copy()
            a.flags.writeable = False
        self.matrix = a
        self.kind = kind
        self.parts, self.counts = partition_keys(parts, counts)
        self.fingerprint = fingerprint if fingerprint is not None else kernel_fingerprint(
            self.matrix, kind=kind, parts=self.parts, counts=self.counts)
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

    def _get(self, key: object, compute: Callable[[], object],
             fits: Optional[Callable[[object], bool]] = None):
        """The memo of ``key``, computed single-flight on a miss.

        ``fits``, when given, decides whether the held value answers this
        call; one that does not is a miss, and the value computed for it
        replaces the held one.
        """
        while True:
            with self._lock:
                if key in self._values and (fits is None or fits(self._values[key])):
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
    # spectral artifacts: a dense symmetric kernel's, and the factor-space
    # set it shares with a low-rank kernel
    # ------------------------------------------------------------------ #
    @property
    def eigh_pair(self) -> EighPair:
        """``symmetrized_eigh(L)`` — the one decomposition of a dense symmetric kernel."""
        return self._get("eigh", lambda: symmetrized_eigh(self.matrix))

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum of :attr:`eigh_pair` — the exact array
        :attr:`repro.dpp.symmetric.SymmetricKDPP.eigenvalues` computes."""
        return self.eigh_pair[0]

    @property
    def factor(self) -> np.ndarray:
        """``B`` with ``L ≈ B Bᵀ``: a low-rank kernel's matrix, or the
        rank-revealing factor read off a dense kernel's :attr:`eigh_pair`."""
        if self.kind == "lowrank":
            return self.matrix
        return self._get("factor", lambda: factor_from_eigh(*self.eigh_pair))

    @property
    def factor_gram(self) -> np.ndarray:
        """``BᵀB`` companion of :attr:`factor`."""
        return self._get("factor_gram", lambda: self.factor.T @ self.factor)

    @property
    def gram_eigh(self) -> EighPair:
        """``symmetrized_eigh`` of :attr:`factor_gram` — the pair a cold
        distribution's factor spectrum and the cold whitening decompose, so
        served and cold draws agree bitwise."""
        return self._get("gram_eigh", lambda: symmetrized_eigh(self.factor_gram))

    @property
    def size_distribution(self) -> np.ndarray:
        """``P[|S| = t]`` of the kernel's DPP, bitwise the
        ``cardinality_distribution()`` a cold sampler draws ``|S|`` from: the
        ESPs of the spectrum (a low-rank kernel's Gram spectrum), or a
        nonsymmetric kernel's principal-minor sums."""
        def compute():
            if self.kind == "nonsymmetric":
                return self.distribution().cardinality_distribution()
            spectrum = self.gram_eigh[0] if self.kind == "lowrank" else self.eigenvalues
            return spectrum_sizes(spectrum, self.n)
        return self._get("size_distribution", compute)

    # ------------------------------------------------------------------ #
    # low-rank intermediate-sampler artifacts — ``matrix`` is the factor ``B``
    # ------------------------------------------------------------------ #
    @property
    def lowrank_whitened(self) -> Tuple[np.ndarray, np.ndarray]:
        """Whitened ``(λ_kept, U)`` intermediate-sampling basis.

        Computed from :attr:`gram_eigh` via
        :func:`repro.dpp.intermediate.lowrank_intermediate_basis` — identical
        to the cold path's whitening (which runs the same Gram + clipped
        ``eigh``), so cached serving replays cold-path samples bitwise.  One
        ``O(n·k²)`` matmul per kernel epoch; :attr:`lowrank_proposal_tables`
        derives from it.
        """
        return self._get("lowrank_whitened", lambda: lowrank_intermediate_basis(
            self.matrix, dual=self.gram_eigh))

    @property
    def lowrank_proposal_tables(self) -> np.ndarray:
        """Cumulative block leverages of :attr:`lowrank_whitened`'s coordinates.

        :func:`repro.dpp.intermediate.proposal_tables`, the table a cold
        intermediate draw builds for itself: ``k x ⌈n/b⌉`` floats, ``b ≈
        √(n/k)``, from one ``O(n·k)`` pass.  A warm draw searches its leverage
        law through it instead of an ``O(n·m)`` pass over every row.
        """
        return self._get("lowrank_proposal_tables",
                         lambda: proposal_tables(self.lowrank_whitened[1]))

    def kdpp_steps(self, k: int) -> Optional[StepTable]:
        """Phase 1's :func:`~repro.dpp.spectral.kdpp_step_table` for a ``k``-DPP draw.

        Over the spectrum the walk reads: a dense kernel's :attr:`eigenvalues`,
        or a low-rank kernel's kept dual eigenvalues
        (``lowrank_whitened[0]``).  The epoch keeps one table, grown to
        exactly the largest ``k`` drawn so far: a table built to ``k``
        answers every smaller ``k``, and a larger ``k`` replaces it,
        single-flight.  So it holds ``O(k_max·n)`` floats however many
        ``k`` are served, and never builds rows no draw reads (they could
        overflow).  ``None`` for a ``k`` outside ``1..len(spectrum)``, which
        the samplers refuse, or answer with ``()``, before phase 1.
        """
        spectrum = self.lowrank_whitened[0] if self.kind == "lowrank" else self.eigenvalues
        if not 0 < k <= spectrum.size:
            return None
        return self._get("kdpp_steps", lambda: kdpp_step_table(spectrum, k),
                         fits=lambda table: table[0].shape[0] >= k)

    # ------------------------------------------------------------------ #
    # torus tables and served distributions
    # ------------------------------------------------------------------ #
    def partition_tables(self, parts: Sequence[Sequence[int]],
                         counts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Node tables of the Partition-DPP torus oracle
        (:func:`repro.dpp.partition.torus_tables`): their stacked inverses
        are the dominant preprocessing cost of the partition sampler, and of
        the nonsymmetric k-DPP, whose tables are the one part ``[n]`` with
        count ``k``."""
        parts_key, counts_key = partition_keys(parts, counts)
        return self._get(("partition_tables", parts_key, counts_key),
                         lambda: torus_tables(self.matrix, parts_key, counts_key))

    @property
    def node_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """A partition kernel's :meth:`partition_tables`, of its own parts and counts."""
        return self.partition_tables(self.parts, self.counts)

    def distribution(self, k: Optional[int] = None) -> SubsetDistribution:
        """The served distribution of cardinality ``k`` (``None``: the DPP).

        Built once per epoch and ``k``, single-flight, and shared by every
        session of the epoch.  Construction skips re-validation — the
        registry validated the kernel once — and a symmetric or low-rank
        DPP or k-DPP carries this factorization's factor, Gram and Gram
        ``eigh`` (a dense one also its spectrum), so no request decomposes
        anything.  A partition kernel serves its one fixed cardinality.  A
        nonsymmetric kernel keeps one k-DPP: its torus tables hold
        ``O(n³)`` bytes, so a new ``k`` drops the last one's distribution
        and tables before its own are built, and one set is alive.
        """
        if self.kind == "partition":
            if k is not None and k != sum(self.counts):
                raise ValueError(f"partition kernel has fixed cardinality {sum(self.counts)}, "
                                 f"cannot sample k={k}")
            k = None
        k = None if k is None else int(k)
        return self._get(("distribution", k), lambda: self._build_distribution(k))

    def _build_distribution(self, k: Optional[int]) -> SubsetDistribution:
        if self.kind == "nonsymmetric":
            if k is None:
                return NonsymmetricDPP(self.matrix, validate=False)
            tables_key = ("partition_tables", *partition_keys([range(self.n)], [k]))
            with self._lock:  # every other k's distribution and tables go first
                for stale in [key for key in self._values if isinstance(key, tuple)
                              and key not in (tables_key, ("distribution", None))]:
                    del self._values[stale]
            # an infeasible k is refused unbuilt
            tables = self.partition_tables([range(self.n)], [k]) if 0 <= k <= self.n else None
            return NonsymmetricKDPP(self.matrix, k, validate=False, tables=tables)
        if self.kind == "partition":
            return PartitionDPP(self.matrix, self.parts, self.counts, validate=False,
                                tables=self.node_tables)
        if self.kind == "lowrank":
            kernel = LowRankKernel(self.matrix, validate=False)
            dist = LowRankDPP(kernel, validate=False) if k is None \
                else LowRankKDPP(kernel, k, validate=False)
            dense = {}
        else:
            dist = SymmetricDPP(self.matrix, validate=False) if k is None \
                else SymmetricKDPP(self.matrix, k, validate=False)
            dense = {"eigenvalues": self.eigenvalues, "factor": self.factor}
        return dist.attach_precomputed(factor_gram=self.factor_gram, gram_eigh=self.gram_eigh,
                                       **dense)

    # ------------------------------------------------------------------ #
    def warm(self) -> "KernelFactorization":
        """Eagerly materialize every artifact the kind's samplers use.

        The cache is lazy by default — each artifact computes on first
        access, i.e. during the first draw that needs it.  Warm-up, which
        the serving layer runs through :meth:`SamplerSession.warm` alone,
        moves that cost before the first request, so a serving process can
        pay preprocessing before taking traffic instead of inside the first
        request's latency.  Values are identical either way — warm-up only
        calls the same lazy getters.
        """
        for name in _ARTIFACTS[self.kind]:
            getattr(self, name)
        return self

    # ------------------------------------------------------------------ #
    # incremental updates (streaming kernels)
    # ------------------------------------------------------------------ #
    def apply_update(self, update, *, matrix: np.ndarray,
                     fingerprint: str) -> "KernelFactorization":
        """A factorization of the mutated kernel, artifacts patched from here.

        ``matrix`` must be the mutated content (``update.apply`` of this
        entry's matrix) and ``fingerprint`` its chain fingerprint.  A
        symmetric entry's materialized ``eigh`` is carried over by the
        secular eigen-update (``O(n²)``), and a low-rank entry's factor is
        the new matrix; from either, the artifacts of the kind's table this
        entry had materialized are re-derived by the getters a cold entry
        runs (``O(n·k²)`` for a factor).  Nothing runs a fresh ``O(n³)``
        factorization.  Artifacts this entry had not materialized, and every
        served distribution, stay lazy in the result.  ``self`` is not
        modified, so in-flight draws keep consuming the predecessor entry
        untouched.
        """
        from repro.linalg.updates import rank_one_eigh_update

        new = KernelFactorization(matrix, fingerprint=fingerprint, kind=self.kind)
        with self._lock:
            sources = dict(self._values)

        if self.kind == "symmetric" and "eigh" in sources:
            lam, vec = sources["eigh"]
            for z, rho in update.rank_one_terms(self.kind):
                lam, vec = rank_one_eigh_update(lam, vec, z, rho)
            # the registry refused any update that leaves the PSD cone, so
            # only the patch's rounding can dip below zero here
            new._install_patched("eigh", (self._freeze(np.clip(lam, 0.0, None)),
                                          self._freeze(vec)))
        elif self.kind != "lowrank":
            # no eigh to patch, or a nonsymmetric kernel: its principal-minor
            # sums and torus tables have no cheap incremental form
            return new
        for name in _ARTIFACTS[self.kind]:
            if name in sources:
                getattr(new, name)
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
        """Bytes held by materialized array artifacts (excluding the matrix itself)."""
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
    lookup returns a fresh factorization, so every request builds its
    distribution cold, which is the "cache off" mode used to verify that
    caching never changes samples.
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

    @staticmethod
    def _key(target: Union[str, np.ndarray]) -> str:
        """A fingerprint as given, or a matrix's as a symmetric registration has it."""
        return target if isinstance(target, str) else kernel_fingerprint(
            np.asarray(target, dtype=float))

    # ------------------------------------------------------------------ #
    def factorization(self, kernel) -> KernelFactorization:
        """Get-or-create the factorization of ``kernel`` (LRU touch).

        ``kernel`` is a registered entry
        (:class:`~repro.service.registry.RegisteredKernel`), whose matrix,
        kind, partition structure and fingerprint the factorization takes,
        or an ensemble matrix: a symmetric kernel, keyed by the fingerprint
        a symmetric registration of it has, so it never returns an entry
        built for another kind.
        """
        if isinstance(kernel, np.ndarray):
            matrix, key, structure = kernel, self._key(kernel), {}
        else:
            matrix, key = kernel.matrix, kernel.fingerprint
            structure = {"kind": kernel.kind, "parts": kernel.parts, "counts": kernel.counts}
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.stats.misses += 1
            entry = KernelFactorization(matrix, fingerprint=key, **structure)
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
        new entry is a cold lazy one of ``kind`` (``"recomputed"``).  The
        predecessor entry is left in place; the registry invalidates it once
        no registration serves it
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
            entry = source.apply_update(update, matrix=matrix, fingerprint=fingerprint)
        else:
            entry = KernelFactorization(matrix, fingerprint=fingerprint, kind=kind)
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
        (``eigh``, ``factor``, ``gram_eigh``, ``distribution``, ...) with
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
        key = self._key(target)
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
        key = self._key(target)
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
