"""The ``OracleBatch`` request/response protocol.

One adaptive round of the paper's samplers is *many independent
counting-oracle queries* against a single distribution (or matrix).  An
:class:`OracleBatch` captures that round declaratively — what is asked, of
whom — so an :class:`~repro.engine.backends.ExecutionBackend` can decide *how*
to answer it: a Python loop, one stacked NumPy call, or a thread pool.

Batch kinds
-----------

``counting``
    Raw counting-oracle values ``Σ { μ(S) : T ⊆ S }`` for each subset ``T``.
``joint_marginals``
    Normalized joint marginals ``P[T ⊆ S]``.  The normalizer ``μ([n])`` is
    computed **once per batch** and cached on the request (it used to be
    recomputed per query by the generic fallback).
``marginal_vector``
    All conditional marginals ``P[i ∈ S | given]``.  Every backend answers
    this through the distribution's own (already single-round) vectorized
    route so that backend choice never changes the numerical path of the
    proposal distribution.
``log_principal_minors``
    ``log det(M_{T,T})`` for mixed-size subsets of an explicit matrix
    (``-inf`` where the minor is nonpositive) — the filtering sampler's
    density-ratio round.
``projection_step``
    One HKPV phase-2 round as a leverage downdate over the fixed basis in
    ``matrix``: given the previous round's ``state`` (the orthonormal span
    of the elements chosen so far and the current leverage scores), fold in
    the direction of the previously selected element (``given``, when
    nonempty) and return the downdated leverage scores — the next
    element's selection weights.  The new ``(spans, leverages)`` come back
    in :attr:`OracleBatchResult.artifacts` (``"state"``) for the next round.
    Like ``marginal_vector`` this kind has one fixed numerical route
    (:func:`repro.linalg.batch.hkpv_projection_step`) shared by every
    backend, so backend choice never perturbs the sequential sampler's
    randomness; the :class:`~repro.service.scheduler.RoundScheduler` stacks
    concurrent same-step rounds into one (``matrix`` may be a ``(G, n, m)``
    stack with one ``given`` entry and one stacked state row per request).
"""

from __future__ import annotations

import importlib
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.utils.fingerprint import array_fingerprint
from repro.utils.subsets import Subset, subset_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.distributions.base import SubsetDistribution

#: the five request kinds understood by every backend
BATCH_KINDS = ("counting", "joint_marginals", "marginal_vector",
               "log_principal_minors", "projection_step")


@dataclass
class OracleBatch:
    """A declarative request for one adaptive round of oracle queries."""

    kind: str
    distribution: Optional["SubsetDistribution"] = None
    subsets: Tuple[Subset, ...] = ()
    given: Subset = ()
    matrix: Optional[np.ndarray] = None
    label: str = "oracle-batch"
    #: a ``projection_step`` round's input ``(spans, leverages)``, stacked
    #: ``(G, t, m)`` / ``(G, n)``: the previous round's ``"state"`` artifact
    state: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None, repr=False)
    _normalizer: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in BATCH_KINDS:
            raise ValueError(f"unknown batch kind {self.kind!r}; expected one of {BATCH_KINDS}")
        if self.kind in ("log_principal_minors", "projection_step"):
            if self.matrix is None:
                raise ValueError(f"{self.kind} batches require a matrix")
        elif self.distribution is None:
            raise ValueError(f"{self.kind} batches require a distribution")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def counting(cls, distribution: "SubsetDistribution",
                 subsets: Sequence[Sequence[int]], *, label: str = "counting-batch") -> "OracleBatch":
        return cls(kind="counting", distribution=distribution,
                   subsets=tuple(subset_key(s) for s in subsets), label=label)

    @classmethod
    def joint_marginals(cls, distribution: "SubsetDistribution",
                        subsets: Sequence[Sequence[int]], *,
                        label: str = "joint-marginals") -> "OracleBatch":
        return cls(kind="joint_marginals", distribution=distribution,
                   subsets=tuple(subset_key(s) for s in subsets), label=label)

    @classmethod
    def marginal_vector(cls, distribution: "SubsetDistribution",
                        given: Sequence[int] = (), *,
                        label: str = "marginal-vector") -> "OracleBatch":
        return cls(kind="marginal_vector", distribution=distribution,
                   given=subset_key(given), label=label)

    @classmethod
    def log_principal_minors(cls, matrix: np.ndarray, subsets: Sequence[Sequence[int]], *,
                             label: str = "log-principal-minors") -> "OracleBatch":
        return cls(kind="log_principal_minors", matrix=matrix,
                   subsets=tuple(subset_key(s) for s in subsets), label=label)

    @classmethod
    def projection_step(cls, basis: np.ndarray, *,
                        eliminate: Optional[Sequence[int]] = None,
                        state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                        label: str = "hkpv-step") -> "OracleBatch":
        """One HKPV phase-2 round over ``basis`` (``(n, m)`` or a ``(G, n, m)`` stack).

        ``eliminate`` holds the previously selected element per stacked
        request and ``state`` the previous round's ``"state"`` artifact (both
        None on the first round, before any element exists).
        """
        items = () if eliminate is None else tuple(int(i) for i in eliminate)
        return cls(kind="projection_step", matrix=np.asarray(basis, dtype=float),
                   given=items, label=label, state=state)

    # ------------------------------------------------------------------ #
    @property
    def n_queries(self) -> int:
        """Number of independent machines this round fans out to."""
        if self.kind == "marginal_vector":
            assert self.distribution is not None
            return self.distribution.n
        if self.kind == "projection_step":
            assert self.matrix is not None
            rows = self.matrix.shape[-2]
            stack = self.matrix.shape[0] if self.matrix.ndim == 3 else 1
            return int(stack * rows)
        return len(self.subsets)

    def normalizer(self) -> float:
        """Total mass ``μ([n])`` of the batch's distribution, computed once.

        Cached on the request so backends answering ``joint_marginals``
        through scalar ``counting()`` calls charge the normalizer exactly
        once per batch instead of once per query.
        """
        if self.distribution is None:
            raise ValueError("normalizer() requires a distribution-backed batch")
        if self._normalizer is None:
            z = float(self.distribution.counting(()))
            if z <= 0:
                raise ValueError("distribution has zero total mass")
            self._normalizer = z
        return self._normalizer

    # ------------------------------------------------------------------ #
    # serialization round-trip contract (process backend / shm transport)
    # ------------------------------------------------------------------ #
    def to_payload(self, publish: Optional[Callable[[np.ndarray], object]] = None) -> "BatchPayload":
        """Picklable description of this batch for out-of-process execution.

        ``publish`` maps each heavy array to a transport token (the process
        backend passes :meth:`repro.engine.shm.SharedArrayStore.publish`; the
        default keeps arrays inline so plain :mod:`pickle` round-trips work).
        Distributions ship as a :meth:`~repro.distributions.base.SubsetDistribution.worker_payload`
        spec when they provide one — arrays replaced by tokens, keyed by a
        content fingerprint so workers rebuild each kernel once — and fall
        back to being pickled whole otherwise (raising whatever the pickle
        layer raises for genuinely unshippable state, e.g. closures).

        Contract: ``payload.to_batch(attach)`` answers every query with the
        same values as the original batch, on every backend, and a worker's
        tracker charges them the work the parent's would: every tracker
        prices a determinant by :func:`~repro.pram.tracker.determinant_work`.
        """
        publish = publish if publish is not None else (lambda a: a)
        matrix_token = publish(self.matrix) if self.matrix is not None else None
        spec: Optional[Dict[str, object]] = None
        blob: Optional[bytes] = None
        if self.distribution is not None:
            described = self.distribution.worker_payload()
            if described is not None:
                arrays, params = described
                cls = type(self.distribution)
                factory = f"{cls.__module__}:{cls.__qualname__}"
                names = sorted(arrays)
                tokens = {name: publish(np.ascontiguousarray(arrays[name]))
                          for name in names}
                # the spec key reuses the transport's content fingerprints
                # (ArrayRef tokens) instead of re-hashing every array — the
                # publish step already paid for those digests
                content = [
                    token.fingerprint if hasattr(token, "fingerprint")
                    else array_fingerprint(np.ascontiguousarray(arrays[name]))
                    for name, token in tokens.items()
                ]
                key = array_fingerprint(extra=(
                    factory, names, content,
                    sorted(params.items(), key=lambda kv: kv[0]),
                ))
                spec = {
                    "factory": factory,
                    "arrays": tokens,
                    "params": dict(params),
                    "key": key,
                }
            else:
                blob = pickle.dumps(self.distribution)
        return BatchPayload(
            kind=self.kind, subsets=self.subsets, given=self.given, label=self.label,
            normalizer=self._normalizer,
            matrix=matrix_token, spec=spec, pickled_distribution=blob,
        )


@dataclass
class BatchPayload:
    """Picklable twin of :class:`OracleBatch` (see :meth:`OracleBatch.to_payload`).

    Heavy arrays are transport tokens (inline arrays, or
    :class:`~repro.engine.shm.ArrayRef` handles into shared memory); the
    distribution is either a rebuildable spec (``factory`` + array tokens +
    scalar params + content key) or a pickle blob.
    """

    kind: str
    subsets: Tuple[Subset, ...] = ()
    given: Subset = ()
    label: str = "oracle-batch"
    normalizer: Optional[float] = None
    matrix: Optional[object] = None
    spec: Optional[Dict[str, object]] = None
    pickled_distribution: Optional[bytes] = None
    #: ``(trace_id, parent_span_id)`` of the traced engine round shipping
    #: this payload, so worker chunks can report spans that join the
    #: request's tree; ``None`` when tracing is off or the round is untraced
    trace: Optional[Tuple[str, str]] = None

    def build_distribution(self, attach: Optional[Callable[[object], np.ndarray]] = None,
                           cache: Optional[Dict[str, object]] = None):
        """Reconstruct the distribution (``None`` for matrix-only batches).

        ``attach`` resolves array tokens (defaults to pass-through);
        ``cache`` is an optional ``spec key -> distribution`` memo so workers
        rebuild each kernel once per process rather than once per chunk.
        """
        if self.spec is not None:
            key = self.spec["key"]
            if cache is not None and key in cache:
                return cache[key]
            attach = attach if attach is not None else (lambda token: np.asarray(token))
            module_name, _, qualname = self.spec["factory"].partition(":")
            cls = importlib.import_module(module_name)
            for part in qualname.split("."):
                cls = getattr(cls, part)
            arrays = {name: attach(token)
                      for name, token in self.spec["arrays"].items()}
            distribution = cls.from_worker_payload(arrays, dict(self.spec["params"]))
            if cache is not None:
                cache[key] = distribution
            return distribution
        if self.pickled_distribution is not None:
            return pickle.loads(self.pickled_distribution)
        return None

    def to_batch(self, attach: Optional[Callable[[object], np.ndarray]] = None,
                 cache: Optional[Dict[str, object]] = None) -> OracleBatch:
        """Rebuild an executable :class:`OracleBatch` (the round-trip inverse)."""
        attach_arrays = attach if attach is not None else (lambda token: np.asarray(token))
        matrix = attach_arrays(self.matrix) if self.matrix is not None else None
        return OracleBatch(
            kind=self.kind, distribution=self.build_distribution(attach, cache),
            subsets=self.subsets, given=self.given, matrix=matrix, label=self.label,
            _normalizer=self.normalizer,
        )


@dataclass
class OracleBatchResult:
    """A batch's vectorized answer plus execution metadata."""

    #: one value per query, in request order
    values: np.ndarray
    #: name of the backend that answered
    backend: str
    #: wall-clock seconds spent answering (side by side with PRAM depth)
    wall_time: float
    #: number of queries answered
    n_queries: int
    #: non-scalar outputs some kinds carry alongside ``values`` — e.g. the
    #: ``"state"`` (chosen span, leverage scores) of a ``projection_step`` round
    artifacts: Dict[str, object] = field(default_factory=dict)
