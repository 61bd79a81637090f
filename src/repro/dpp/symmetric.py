"""Symmetric DPPs and k-DPPs (Definitions 3 and 6).

Both classes expose the counting-oracle / self-reducibility interface of
:class:`repro.distributions.base.SubsetDistribution` with the determinant-based
``NC`` oracles of Proposition 13:

* ``SymmetricDPP``:  ``μ(S) ∝ det(L_S)``; counting oracle
  ``Σ_{S ⊇ T} det(L_S) = det(K_T) · det(I + L)``.
* ``SymmetricKDPP``: ``μ(S) ∝ det(L_S) · 1[|S| = k]``; counting oracle
  ``Σ_{S ⊇ T, |S| = k} det(L_S) = [z^k] det(I + zL) · det(K(z)_T)`` with
  ``K(z) = zL (I + zL)^{-1}``, read off ``r + 1`` points on a circle
  (:func:`repro.linalg.esp.kdpp_counts_from_factor`).

Conditioning maps to Schur complements of the ensemble matrix (Section 3.2).
``SymmetricDPP`` forms that Schur complement.  A conditioned
``SymmetricKDPP`` holds only a factor of it, the projected factor
``F = B_O Q`` (:func:`repro.linalg.batch.conditioned_factor`), and the
factor's ``r x r`` Gram: its spectrum, marginals and counts come from one
``r x r`` eigendecomposition, and no ``(n - t) x (n - t)`` matrix is formed.
:class:`repro.distributions.lowrank.LowRankKDPP` is the same factor-only
kernel, built from a factor.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution, SubsetDistribution
from repro.dpp.elementary import dpp_size_distribution, kdpp_marginals_from_factor
from repro.dpp.kernels import ensemble_to_kernel, validate_ensemble
from repro.dpp.likelihood import dpp_unnormalized
from repro.linalg.batch import (
    EighPair,
    conditioned_factor,
    factor_from_eigh,
    group_by_size,
    grouped_principal_minors,
    lowrank_conditioned_gram,
    stacked_principal_submatrices,
    symmetrized_eigh,
)
from repro.linalg.determinant import principal_minor
from repro.linalg.esp import elementary_symmetric_polynomials, kdpp_counts_from_factor
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_positive_int, check_subset


class SymmetricDPP(SubsetDistribution):
    """Unconstrained symmetric DPP ``P[Y] ∝ det(L_Y)`` with PSD ``L``."""

    def __init__(self, L: np.ndarray, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        self.L = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
        self.n = self.L.shape[0]
        self._labels = tuple(int(i) for i in labels) if labels is not None else tuple(range(self.n))
        self._kernel: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    @property
    def kernel(self) -> np.ndarray:
        """Marginal kernel ``K = L (I + L)^{-1}`` (cached)."""
        if self._kernel is None:
            self._kernel = ensemble_to_kernel(self.L)
        return self._kernel

    def worker_payload(self):
        """Ship ``L`` (plus the marginal kernel once computed) to workers.

        A distribution that has computed its kernel ships it so workers skip
        the ``O(n³)`` inverse; otherwise each worker derives it from ``L``
        with the identical routine (same machine, same LAPACK — same bits).
        """
        arrays = {"L": self.L}
        if self._kernel is not None:
            arrays["kernel"] = self._kernel
        return arrays, {"labels": self._labels}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        dist = cls(arrays["L"], validate=False, labels=params["labels"])
        if "kernel" in arrays:
            dist._kernel = arrays["kernel"]
        return dist

    def oracle_cost_hint(self) -> float:
        """Marginal-kernel minors: stacked LAPACK, negligible Python lane."""
        return 0.05

    # ------------------------------------------------------------------ #
    # counting oracle and densities
    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        return max(dpp_unnormalized(self.L, items), 0.0)

    def partition_function(self) -> float:
        current_tracker().charge_determinant(self.n)
        return float(np.linalg.det(np.eye(self.n) + self.L))

    def counting(self, given: Iterable[int] = ()) -> float:
        items = check_subset(given, self.n)
        if not items:
            return self.partition_function()
        joint = principal_minor(self.kernel, items)
        return max(joint, 0.0) * self.partition_function()

    def joint_marginal(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if not items:
            return 1.0
        return float(np.clip(principal_minor(self.kernel, items), 0.0, 1.0))

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Counting values for many (mixed-size) ``T``: ``det(K_T) · det(I + L)``."""
        minors = grouped_principal_minors(self.kernel, subsets)
        return np.clip(minors, 0.0, None) * self.partition_function()

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``P[T ⊆ Y]`` for many (mixed-size) ``T`` in one batched round."""
        return np.clip(grouped_principal_minors(self.kernel, subsets), 0.0, 1.0)

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("dpp-marginals"):
            if not items:
                return np.clip(np.diag(self.kernel).copy(), 0.0, 1.0)
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            inner = np.clip(np.diag(conditioned.kernel), 0.0, 1.0)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = inner
        return marginals

    def cardinality_distribution(self) -> np.ndarray:
        return dpp_size_distribution(self.L)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "SymmetricDPP":
        items = check_subset(include, self.n)
        if not items:
            return self
        L_cond, remaining = condition_ensemble(self.L, items)
        labels = tuple(self._labels[i] for i in remaining)
        # The Schur complement of a PSD matrix is PSD up to floating point
        # noise; skip re-validation to avoid spurious failures on tiny
        # negative eigenvalues.
        return SymmetricDPP(0.5 * (L_cond + L_cond.T), validate=False, labels=labels)

    def restrict_to_size(self, k: int) -> "SymmetricKDPP":
        """The k-DPP obtained by conditioning on ``|Y| = k`` (Definition 6)."""
        return SymmetricKDPP(self.L, k)


class SymmetricKDPP(HomogeneousDistribution):
    """Symmetric k-DPP ``P[Y] ∝ det(L_Y) · 1[|Y| = k]`` with PSD ``L``.

    A kernel made by :meth:`condition`, like every
    :class:`~repro.distributions.lowrank.LowRankKDPP`, holds no dense ``L``
    (``L is None``): only a factor ``F`` with ``L = F Fᵀ`` and that factor's
    ``r x r`` Gram, from which every oracle answers.
    """

    def __init__(self, L: np.ndarray, k: int, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        L = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
        self._setup(L, None, k, labels)
        if validate and self.k > 0:
            self._check_rank()

    def _setup(self, L: Optional[np.ndarray], factor: Optional[np.ndarray], k: int,
               labels: Optional[Sequence[int]]) -> None:
        """State of a kernel given by its dense ``L``, or by a factor alone (``L=None``)."""
        self.L = L
        self.n = (factor if L is None else L).shape[0]
        self.k = check_positive_int(k, "k", minimum=0) if k else 0
        if self.k > self.n:
            raise ValueError(f"k={k} exceeds ground set size {self.n}")
        self._labels = tuple(int(i) for i in labels) if labels is not None else tuple(range(self.n))
        self._eigenvalues: Optional[np.ndarray] = None
        self._eigh: Optional[EighPair] = None  # a dense L's, until its factor exists
        self._factor: Optional[np.ndarray] = factor
        self._factor_gram: Optional[np.ndarray] = None
        self._gram_eigh: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def _from_factor(cls, factor: np.ndarray, k: int,
                     labels: Sequence[int]) -> "SymmetricKDPP":
        """A kernel holding only the factor ``F`` of ``L = F Fᵀ``, never ``L``."""
        dist = cls.__new__(cls)
        dist._setup(None, factor, k, labels)
        return dist

    def _check_rank(self) -> None:
        eigs = self.eigenvalues
        top = float(eigs.max(initial=0.0))
        numerical_rank = int(np.sum(eigs > 1e-10 * max(top, 1.0)))
        if numerical_rank < self.k:
            raise ValueError(
                f"k-DPP with k={self.k} has zero mass: rank of L is {numerical_rank} < k"
            )

    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    def _dense_eigh(self) -> EighPair:
        """``symmetrized_eigh(L)``: the one decomposition of a dense ``L``."""
        pair = self._eigh  # one read: a concurrent factor build may clear it
        if pair is None:
            pair = self._eigh = symmetrized_eigh(self.L)
        return pair

    @property
    def eigenvalues(self) -> np.ndarray:
        """Clipped spectrum of ``L``, ascending (cached).

        A kernel with a dense ``L`` takes the ``n`` eigenvalues of
        :func:`~repro.linalg.batch.symmetrized_eigh`, the decomposition its
        factor comes from.  A kernel without one returns the spectrum of its
        factor's ``r x r`` Gram, which holds every nonzero eigenvalue of
        ``L``, with no ``n x n`` decomposition.  It keeps at most ``n``
        values: ``rank(L) <= n``, so any further Gram eigenvalues are
        rounding.
        """
        if self._eigenvalues is None:
            if self.L is None:
                s = self._factor_spectrum()[0]
                return s[max(s.size - self.n, 0):]
            self._eigenvalues = self._dense_eigh()[0]
        return self._eigenvalues

    @property
    def factor(self) -> np.ndarray:
        """Factor ``F`` with ``L = F Fᵀ`` (cached).

        A dense ``L`` gets a rank-revealing factor on first use, from the same
        ``symmetrized_eigh`` pair as :attr:`eigenvalues`
        (:func:`repro.linalg.batch.factor_from_eigh`), charged as the ``n x n``
        decomposition; the eigenvectors are dropped once it exists.  A kernel
        without a dense ``L`` is given its factor: :meth:`condition` hands its
        child the projected factor ``B_O Q`` of the parent's width, and a
        :class:`~repro.distributions.lowrank.LowRankKDPP` holds its ``B``.
        Counting and the marginals work from this factor's ``r x r`` Gram
        (see :meth:`_factor_spectrum`).
        """
        if self._factor is None:
            current_tracker().charge_determinant(self.n)
            pair = self._dense_eigh()
            self._eigenvalues = pair[0]
            self._factor = factor_from_eigh(*pair)
            self._eigh = None
        return self._factor

    @property
    def factor_gram(self) -> np.ndarray:
        """Cached ``FᵀF`` companion of :attr:`factor`."""
        if self._factor_gram is None:
            factor = self.factor
            self._factor_gram = factor.T @ factor
        return self._factor_gram

    def _factor_spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(s, F V)`` from one eigh ``FᵀF = V diag(s) Vᵀ`` (cached).

        ``s`` is the nonzero spectrum of ``L`` and the columns of ``F V`` its
        eigenvectors scaled by ``√s``: all the marginals and the counting
        queries need, at ``r x r``.
        """
        if self._gram_eigh is None:
            gram = self.factor_gram
            current_tracker().charge_determinant(gram.shape[0])
            s, V = np.linalg.eigh(0.5 * (gram + gram.T))
            self._gram_eigh = (np.clip(s, 0.0, None), self.factor @ V)
        return self._gram_eigh

    def attach_precomputed(self, *, eigenvalues: Optional[np.ndarray] = None,
                           factor: Optional[np.ndarray] = None,
                           factor_gram: Optional[np.ndarray] = None,
                           gram_eigh: Optional[Tuple[np.ndarray, np.ndarray]] = None
                           ) -> "SymmetricKDPP":
        """Install cached spectral artifacts so sampling skips preprocessing.

        ``eigenvalues`` must be the spectrum of
        :func:`repro.linalg.batch.symmetrized_eigh` of the dense ``L``,
        ``factor`` :func:`repro.linalg.batch.factor_from_eigh` of that pair,
        ``factor_gram`` the factor's Gram ``FᵀF`` and ``gram_eigh`` the
        clipped ``eigh`` pair ``(s, V)`` of the symmetrized Gram — exactly
        what the serving layer's factorization cache computes (for a
        low-rank registration, its ``lowrank_gram`` and ``lowrank_dual``), so
        fixed-seed samples agree bitwise with the uncached path.  It then re-runs the (now cheap)
        feasibility check that ``validate=True`` construction would have
        performed.
        """
        if eigenvalues is not None:
            if eigenvalues.shape != (self.n,):
                raise ValueError("precomputed eigenvalues have mismatched shape")
            self._eigenvalues = eigenvalues
        if factor is not None:
            if factor.ndim != 2 or factor.shape[0] != self.n:
                raise ValueError("precomputed factor has mismatched shape")
            self._factor = factor
            self._eigh = None
        gram_shape = None if self._factor is None else (self._factor.shape[1],) * 2
        if factor_gram is not None:
            if factor_gram.shape != gram_shape:
                raise ValueError("factor_gram requires a matching precomputed factor")
            self._factor_gram = factor_gram
        if gram_eigh is not None:
            spectrum, vectors = gram_eigh
            if vectors.shape != gram_shape:
                raise ValueError("gram_eigh requires a matching precomputed factor")
            self._gram_eigh = (spectrum, self._factor @ vectors)
        if self.k > 0:
            self._check_rank()
        return self

    def worker_payload(self):
        """Ship ``L`` (or, without one, the factor) plus the warm spectral artifacts.

        A serving-layer distribution (``attach_precomputed``) and every
        conditioned kernel ship their factor / Gram companion (and the
        factor spectrum that counting reads, once computed) through shared
        memory, so workers skip every eigendecomposition.  A kernel without a
        dense ``L`` ships nothing larger than its ``n x r`` factor.  A cold
        dense kernel ships only ``L`` and lets each worker derive the
        artifacts once (they are cached per kernel fingerprint on the worker
        side).
        """
        arrays = {} if self.L is None else {"L": self.L}
        if self._eigenvalues is not None:
            arrays["eigenvalues"] = self._eigenvalues
        if self._factor is not None:
            arrays["factor"] = self._factor
        if self._factor_gram is not None:
            arrays["factor_gram"] = self._factor_gram
        if self._gram_eigh is not None:
            arrays["factor_spectrum"] = self._gram_eigh[0]
            arrays["factor_rotated"] = self._gram_eigh[1]
        return arrays, {"k": self.k, "labels": self._labels}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        if "L" in arrays:
            dist = cls(arrays["L"], params["k"], validate=False, labels=params["labels"])
        else:
            dist = cls._from_factor(arrays["factor"], params["k"], params["labels"])
        if "eigenvalues" in arrays:
            dist._eigenvalues = arrays["eigenvalues"]
        if "factor" in arrays:
            dist._factor = arrays["factor"]
            if "factor_gram" in arrays:
                dist._factor_gram = arrays["factor_gram"]
            if "factor_spectrum" in arrays:
                dist._gram_eigh = (arrays["factor_spectrum"], arrays["factor_rotated"])
        return dist

    def oracle_cost_hint(self) -> float:
        """Stacked matmuls and small determinants: LAPACK-dominated.

        A counting round is one stacked matmul plus ``|T| x |T|``
        determinants at ``⌊(r + 1)/2⌋ + 1`` nodes per query, so only a thin
        Python lane remains.
        """
        return 0.1

    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        """``det(L_S)`` for ``|S| = k``: the ``|T| = k`` count of :meth:`counting_batch`."""
        items = check_subset(subset, self.n)
        return self.counting(items) if len(items) == self.k else 0.0

    def partition_function(self) -> float:
        """``e_k(λ(L))`` over the positive eigenvalues.

        Charged as the decomposition the spectrum comes from: ``n x n`` for a
        dense ``L``, the factor's ``r x r`` Gram without one.  An exact zero
        leaves every ``e_j`` unchanged bit for bit.
        """
        order = self.n if self.L is not None else self.factor.shape[1]
        current_tracker().charge_determinant(order)
        eigenvalues = self.eigenvalues
        esp = elementary_symmetric_polynomials(eigenvalues[eigenvalues > 0], max_order=self.k)
        return float(esp[self.k])

    def counting(self, given: Iterable[int] = ()) -> float:
        """``Σ_{S ⊇ T, |S| = k} det(L_S) = det(L_T) · e_{k-|T|}(λ(L^T))``.

        A one-subset :meth:`counting_batch`, so scalar-loop backends return
        the vectorized backend's values bit for bit.
        """
        items = check_subset(given, self.n)
        return float(self.counting_batch([items])[0])

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        """Spectral k-DPP marginals from the factor's ``r x r`` Gram eigh."""
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("kdpp-marginals"):
            if not items:
                return kdpp_marginals_from_factor(*self._factor_spectrum(), self.k)
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = conditioned.marginal_vector()
        return marginals

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``Σ_{S ⊇ T, |S| = k} det(L_S)`` for many (mixed-size) ``T`` at once.

        Equal-size groups with ``0 < |T| < k`` are read off the generating
        polynomial ``det(I + zL) · det(K(z)_T)`` on a circle by
        :func:`~repro.linalg.esp.kdpp_counts_from_factor`, from the cached
        factor spectrum: no query decomposes anything.  ``|T| = k`` is one
        stacked determinant of ``L_T``, or of ``F_T F_Tᵀ`` without a dense
        ``L``.  Stacked slices are computed independently, so a query's value
        does not depend on what it is batched with.
        """
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            group = [subsets[p] for p in positions]
            if t > self.k:
                continue
            if t == 0:
                values[positions] = self.partition_function()
                continue
            if t == self.k:
                tracker.charge_determinant(t, count=len(group))
                if self.L is None:
                    idx = np.asarray([sorted(int(i) for i in s) for s in group], dtype=int)
                    rows = self.factor[idx]                    # (batch, k, r)
                    dets = np.linalg.det(rows @ rows.transpose(0, 2, 1))
                else:
                    dets = np.linalg.det(stacked_principal_submatrices(self.L, group))
                values[positions] = np.where(dets > 0, dets, 0.0)
                continue
            values[positions] = kdpp_counts_from_factor(*self._factor_spectrum(), group, self.k)
        return values

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``P[T ⊆ Y]`` for many (mixed-size) ``T`` in one batched round."""
        z = self.partition_function()
        if z <= 0:
            raise ValueError("distribution has zero total mass")
        tracker = current_tracker()
        with tracker.round("kdpp-joint-marginals"):
            tracker.charge(machines=float(len(subsets)))
            values = self.counting_batch(subsets) / z
        return np.clip(values, 0.0, None)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "SymmetricKDPP":
        """The ``(k - |T|)``-DPP given ``T ⊆ Y``, held as a factor alone.

        ``F = B_O Q`` factors the Schur complement ``L^T``
        (:func:`~repro.linalg.batch.conditioned_factor`, which raises on a
        zero-probability event) and
        :func:`~repro.linalg.batch.lowrank_conditioned_gram` gives its
        ``r x r`` Gram, so the child never forms an ``(n - t) x (n - t)``
        matrix.
        """
        items = check_subset(include, self.n)
        if not items:
            return self
        if len(items) > self.k:
            raise ValueError(f"cannot condition a {self.k}-DPP on {len(items)} inclusions")
        factor, remaining = conditioned_factor(self.factor, items)
        child = self._from_factor(factor, self.k - len(items),
                                  [self._labels[i] for i in remaining])
        child._factor_gram = lowrank_conditioned_gram(self.factor, self.factor_gram, [items])[1][0]
        return child
