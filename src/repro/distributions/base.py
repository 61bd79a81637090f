"""Abstract interfaces for distributions over subsets of a ground set.

The paper's framework needs exactly two structural properties of a measure
``μ : C([n], k) → R≥0`` (Section 1.2):

1. a **counting oracle**: for any ``T ⊆ [n]``, the value
   ``Σ { μ(S) : S in support, T ⊆ S }`` (Footnote 1: querying a ``T`` of size
   exactly ``k`` returns ``μ(T)`` itself), and
2. **self-reducibility**: conditioning on element inclusion yields another
   distribution in the same family.

:class:`SubsetDistribution` captures this contract.  Concrete classes
(DPP variants in :mod:`repro.dpp`, planar matchings in :mod:`repro.planar`,
table-backed distributions in :mod:`repro.distributions.generic`) provide the
oracle; generic samplers in :mod:`repro.core` are written against this
interface only.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.pram.tracker import current_tracker
from repro.utils.subsets import all_subsets_of_size, subset_key
from repro.utils.validation import check_subset


class CountingOracleError(ValueError):
    """Raised when a counting oracle returns invalid (e.g. negative) values.

    Counting oracles answer ``Σ { μ(S) : T ⊆ S }`` for a nonnegative measure,
    so any significantly negative answer means the oracle implementation (or
    its numerical route) is broken; samplers must not silently clip it away.
    """


class SubsetDistribution(abc.ABC):
    """A (possibly unnormalized) measure over subsets of ``{0, ..., n-1}``.

    Subclasses must implement :meth:`counting` (the paper's counting oracle)
    and :meth:`condition` (self-reducibility).  Default implementations of
    marginals, joint marginals, batched queries, and normalization are derived
    from the oracle; subclasses are encouraged to override them with faster
    linear-algebra routes (DPPs do) — in particular :meth:`counting_batch` and
    :meth:`joint_marginals_batch`, which the vectorized execution backend
    (:mod:`repro.engine`) uses to answer a whole adaptive round at once.
    """

    #: ground set size
    n: int

    # ------------------------------------------------------------------ #
    # the two structural primitives
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def counting(self, given: Iterable[int] = ()) -> float:
        """Counting oracle: ``Σ { μ(S) : T ⊆ S }`` for ``T = given``."""

    @abc.abstractmethod
    def condition(self, include: Iterable[int]) -> "SubsetDistribution":
        """Distribution ``μ(· | include)`` on the ground set minus ``include``.

        The returned distribution is over subsets of the **remaining**
        elements; implementations must expose :attr:`ground_labels` mapping
        their internal indices back to the original labels (the identity for
        the root distribution).
        """

    # ------------------------------------------------------------------ #
    # label bookkeeping (conditioned distributions re-index their ground set)
    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        """Original labels of this distribution's ground set."""
        return tuple(range(self.n))

    # ------------------------------------------------------------------ #
    # out-of-process shipping (the engine's process backend)
    # ------------------------------------------------------------------ #
    def worker_payload(self) -> Optional[Tuple[dict, dict]]:
        """``(arrays, params)`` describing this distribution for worker processes.

        ``arrays`` maps names to the heavy ndarrays (shipped once through
        shared memory and cached per worker by content fingerprint);
        ``params`` holds small picklable scalars/tuples.  Together they must
        satisfy ``cls.from_worker_payload(arrays, params)`` answering every
        counting query with the same values as ``self`` — including any
        normalizer this object has already materialized, so workers never
        recompute what the parent (or the serving layer's factorization
        cache) already paid for.

        The default returns ``None``: the engine then pickles the object
        whole — correct for plain table/array state, and a loud failure for
        closures or other unpicklable captures, which the process backend
        turns into a graceful vectorized fallback.
        """
        return None

    @classmethod
    def from_worker_payload(cls, arrays: dict, params: dict) -> "SubsetDistribution":
        """Rebuild a distribution described by :meth:`worker_payload`."""
        raise NotImplementedError(
            f"{cls.__name__} does not implement the worker-payload contract"
        )

    # ------------------------------------------------------------------ #
    # execution-cost hint (the engine's planner)
    # ------------------------------------------------------------------ #
    def oracle_cost_hint(self) -> float:
        """Share of one oracle query spent in GIL-bound interpreted Python.

        ``0`` means pure stacked linear algebra, ``1`` a pure-Python loop.
        The :class:`~repro.engine.planner.RoundPlanner` reads it to guess
        whether worker processes could beat a measured in-process round
        before it has measured them.  The default is honest about the
        generic implementation: ``counting_batch`` is the scalar
        ``counting`` loop, all GIL-bound Python.  Structured subclasses
        override with their real profile.
        """
        return 1.0

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def cardinality(self) -> Optional[int]:
        """Fixed sample cardinality ``k`` for homogeneous distributions, else ``None``."""
        return None

    def partition_function(self) -> float:
        """Total unnormalized mass ``Σ_S μ(S)``."""
        return self.counting(())

    def unnormalized(self, subset: Iterable[int]) -> float:
        """``μ(S)`` for a full-size subset ``S`` (via the counting oracle)."""
        items = check_subset(subset, self.n)
        return self.counting(items)

    def probability(self, subset: Iterable[int]) -> float:
        """Normalized probability of ``subset``."""
        z = self.partition_function()
        if z <= 0:
            raise ValueError("distribution has zero total mass")
        return self.unnormalized(subset) / z

    def joint_marginal(self, subset: Iterable[int]) -> float:
        """``P_{S ~ μ}[T ⊆ S]`` for ``T = subset``."""
        items = check_subset(subset, self.n)
        z = self.partition_function()
        if z <= 0:
            raise ValueError("distribution has zero total mass")
        return self.counting(items) / z

    # ------------------------------------------------------------------ #
    # batched oracle queries (one adaptive round; see repro.engine)
    # ------------------------------------------------------------------ #
    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Counting-oracle answers for many subsets in one batched round.

        The generic default loops the scalar oracle; structured subclasses
        (DPPs, explicit tables) override it with one vectorized pass so the
        :class:`~repro.engine.backends.VectorizedBackend` actually fans out.
        """
        return np.array([self.counting(subset) for subset in subsets], dtype=float)

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``P[T ⊆ S]`` for many subsets ``T`` in one batched round.

        The normalizer ``μ([n])`` is computed exactly once per batch.
        """
        z = self.partition_function()
        if z <= 0:
            raise ValueError("distribution has zero total mass")
        return np.clip(self.counting_batch(subsets) / z, 0.0, None)

    def marginal(self, element: int, given: Iterable[int] = ()) -> float:
        """Conditional marginal ``P[element ∈ S | given ⊆ S]``."""
        base = check_subset(given, self.n)
        if element in base:
            return 1.0
        denom = self.counting(base)
        if denom <= 0:
            raise ValueError(f"conditioning event {base} has zero probability")
        numer = self.counting(tuple(sorted(base + (int(element),))))
        return numer / denom

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        """All conditional marginals ``P[i ∈ S | given ⊆ S]`` in one batched round.

        Elements already in ``given`` get marginal 1.  This default issues
        ``n`` counting-oracle queries in a single adaptive round; DPP
        subclasses override it with a single marginal-kernel computation.

        Raises
        ------
        CountingOracleError
            If any counting query returns a significantly negative value —
            the oracle contract is violated and the proposal distribution
            built from these marginals would be meaningless.  Values are
            validated in one vectorized pass after the round; tiny negative
            floating-point noise is clipped to zero.
        """
        base = check_subset(given, self.n)
        denom = self.counting(base)
        if denom <= 0:
            raise ValueError(f"conditioning event {base} has zero probability")
        base_set = set(base)
        outside = [i for i in range(self.n) if i not in base_set]
        queries = [tuple(sorted(base + (i,))) for i in outside]
        values = np.full(self.n, denom, dtype=float)
        tracker = current_tracker()
        with tracker.round("marginal_vector"):
            tracker.charge(machines=float(self.n))
            values[outside] = self.counting_batch(queries)
        # one vectorized validation pass over the whole round's answers
        tolerance = 1e-12 * max(float(np.abs(values).max(initial=0.0)), denom, 1.0)
        invalid = np.flatnonzero(values < -tolerance)
        if invalid.size:
            worst = invalid[np.argmin(values[invalid])]
            raise CountingOracleError(
                f"counting oracle returned negative values for {invalid.size} "
                f"element(s) {invalid[:5].tolist()} given {base}; worst offender: "
                f"element {int(worst)} with value {values[worst]:.6g}"
            )
        return np.clip(np.clip(values, 0.0, None) / denom, 0.0, 1.0)

    def cardinality_distribution(self) -> np.ndarray:
        """``P[|S| = t]`` for ``t = 0..n`` (brute force default; DPPs override)."""
        if self.cardinality is not None:
            point_mass = np.zeros(self.n + 1, dtype=float)
            point_mass[self.cardinality] = 1.0
            return point_mass
        weights = np.zeros(self.n + 1, dtype=float)
        for size in range(self.n + 1):
            for subset in all_subsets_of_size(self.n, size):
                weights[size] += self.unnormalized(subset)
        total = weights.sum()
        if total <= 0:
            raise ValueError("distribution has zero total mass")
        return weights / total

    def expected_size(self) -> float:
        """``E[|S|]`` under the normalized distribution."""
        dist = self.cardinality_distribution()
        return float(np.dot(np.arange(dist.size), dist))

    # ------------------------------------------------------------------ #
    # brute-force materialization (small n only; ground truth in tests)
    # ------------------------------------------------------------------ #
    def enumerate_support(self, max_ground_set: int = 20):
        """Yield ``(subset, unnormalized_weight)`` pairs for all subsets.

        Guarded by ``max_ground_set`` because the enumeration is exponential.
        Homogeneous distributions only enumerate size-``k`` subsets.
        """
        if self.n > max_ground_set:
            raise ValueError(
                f"refusing to enumerate 2^{self.n} subsets; raise max_ground_set "
                "explicitly if you really want this"
            )
        k = self.cardinality
        sizes = [k] if k is not None else range(self.n + 1)
        for size in sizes:
            for subset in all_subsets_of_size(self.n, size):
                weight = self.unnormalized(subset)
                if weight > 0:
                    yield subset_key(subset), weight

    def to_explicit(self, max_ground_set: int = 20) -> "ExplicitDistribution":
        """Materialize the distribution as a normalized probability table."""
        from repro.distributions.generic import ExplicitDistribution

        table = dict(self.enumerate_support(max_ground_set=max_ground_set))
        return ExplicitDistribution(self.n, table, cardinality=self.cardinality)


class HomogeneousDistribution(SubsetDistribution):
    """A distribution supported on subsets of a fixed size ``k``."""

    k: int

    @property
    def cardinality(self) -> Optional[int]:
        return self.k

    def cardinality_distribution(self) -> np.ndarray:
        dist = np.zeros(self.n + 1, dtype=float)
        dist[self.k] = 1.0
        return dist

    def expected_size(self) -> float:
        return float(self.k)
