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

Both answer from one kernel state, :class:`_SymmetricKernel`: a dense ``L``
or a factor ``F`` alone (``L = F Fᵀ``), the rank-revealing factor of a dense
``L`` read off its one :func:`~repro.linalg.batch.symmetrized_eigh`, and one
``r x r`` eigendecomposition ``FᵀF = V diag(s) Vᵀ``.  The DPP's marginal
kernel is ``K = W Wᵀ`` with ``W = F V (I + S)^{-1/2}``, so its minors are
``det(W_T W_Tᵀ)`` and its normalizer is ``det(I + L) = ∏(1 + λ)``.

Conditioning maps to Schur complements of the ensemble matrix (Section 3.2).
A conditioned kernel holds only a factor of that Schur complement, the
projected factor ``F = B_O Q`` (:func:`repro.linalg.batch.conditioned_factor`),
and the factor's ``r x r`` Gram: its spectrum, marginals and counts come from
one ``r x r`` eigendecomposition, and no ``(n - t) x (n - t)`` matrix is
formed.  A conditioned 1-DPP holds the factor alone and decomposes nothing:
its marginals and normalizer are the factor's squared row norms.
:class:`repro.distributions.lowrank.LowRankDPP` and
:class:`~repro.distributions.lowrank.LowRankKDPP` are the same factor-only
kernels, built from a factor.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution, SubsetDistribution
from repro.dpp.elementary import kdpp_marginals_from_factor, spectrum_sizes
from repro.dpp.kernels import validate_ensemble
from repro.linalg.batch import (
    EighPair,
    conditioned_factor,
    factor_from_eigh,
    group_by_size,
    stacked_principal_submatrices,
    symmetrized_eigh,
)
from repro.linalg.determinant import principal_minor
from repro.linalg.esp import elementary_symmetric_polynomials, kdpp_circle, kdpp_counts_on_circle
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_positive_int, check_subset


def _row_gram_dets(rows: np.ndarray, group: Sequence[Sequence[int]]) -> np.ndarray:
    """``det(R_T R_Tᵀ)`` for every ``T`` of an equal-size group, one stacked call."""
    idx = np.asarray([sorted(int(i) for i in s) for s in group], dtype=int)
    block = rows[idx]                                   # (batch, t, r)
    return np.linalg.det(block @ block.transpose(0, 2, 1))


class _SymmetricKernel:
    """A PSD ensemble given by its dense ``L``, or by a factor ``F`` alone.

    Holds what both symmetric distributions answer from: the one
    ``symmetrized_eigh`` of a dense ``L``, the factor read off it, the
    factor's Gram and that Gram's spectrum.  A subclass adds its oracles;
    the k-DPP also adds its ``k`` (a keyword of :meth:`_setup`) and its rank
    check (:meth:`_check_rank`).
    """

    def _setup(self, L: Optional[np.ndarray], factor: Optional[np.ndarray],
               labels: Optional[Iterable[int]]) -> None:
        """State of a kernel given by its dense ``L``, or by a factor alone (``L=None``)."""
        self.L = L
        self.n = (factor if L is None else L).shape[0]
        self._labels = tuple(map(int, labels)) if labels is not None else tuple(range(self.n))
        self._eigenvalues: Optional[np.ndarray] = None
        self._eigh: Optional[EighPair] = None  # a dense L's, until its factor exists
        self._factor: Optional[np.ndarray] = factor
        self._factor_gram: Optional[np.ndarray] = None
        self._gram_eigh: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._kept_values: Dict[str, object] = {}

    @classmethod
    def _from_factor(cls, factor: np.ndarray, labels: Iterable[int], **params):
        """A kernel holding only the factor ``F`` of ``L = F Fᵀ``, never ``L``."""
        dist = cls.__new__(cls)
        dist._setup(None, factor, labels, **params)
        return dist

    def _check_rank(self) -> None:
        """Feasibility check of validated construction and :meth:`attach_precomputed`."""

    def _kept(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()`` on first use, then the kept value.

        For results that depend on the kernel alone, which a served
        distribution answers many requests from.  They are computed
        deterministically, so two requests that race on first use store
        equal values.  :meth:`attach_precomputed` clears them, and
        :meth:`worker_payload` does not ship them.
        """
        kept = self._kept_values
        value = kept.get(name)
        if value is None:
            value = kept[name] = compute()
        return value

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
        without a dense ``L`` is given its factor: :meth:`_conditioned` hands
        its child the projected factor ``B_O Q`` of the parent's width, and
        the low-rank distributions hold their ``B``.  Every oracle works from
        this factor's ``r x r`` Gram (see :meth:`_factor_spectrum`).
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
            s, V = symmetrized_eigh(gram)
            self._gram_eigh = (s, self.factor @ V)
        return self._gram_eigh

    def attach_precomputed(self, *, eigenvalues: Optional[np.ndarray] = None,
                           factor: Optional[np.ndarray] = None,
                           factor_gram: Optional[np.ndarray] = None,
                           gram_eigh: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        """Install cached spectral artifacts so sampling skips preprocessing.

        ``eigenvalues`` must be the spectrum of
        :func:`repro.linalg.batch.symmetrized_eigh` of the dense ``L``,
        ``factor`` :func:`repro.linalg.batch.factor_from_eigh` of that pair,
        ``factor_gram`` the factor's Gram ``FᵀF`` and ``gram_eigh`` the
        ``symmetrized_eigh`` pair ``(s, V)`` of the Gram — exactly what the
        serving layer's factorization cache computes (its ``factor_gram``
        and ``gram_eigh``, for a dense or a low-rank registration), so
        fixed-seed samples agree bitwise with the uncached path.  It then
        re-runs the (now cheap) feasibility check that ``validate=True``
        construction would have performed.  Values kept after first use
        (:meth:`_kept`) are cleared.
        """
        self._kept_values = {}
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
        self._check_rank()
        return self

    def _payload_arrays(self) -> dict:
        """``L`` (or, without one, the factor) plus the warm spectral artifacts."""
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
        return arrays

    def worker_payload(self):
        """Ship ``L`` (or, without one, the factor) plus the warm spectral artifacts.

        A serving-layer distribution (``attach_precomputed``) and every
        conditioned kernel ship their factor / Gram companion (and the
        factor spectrum the oracles read, once computed) through shared
        memory, so workers skip every eigendecomposition.  A kernel without a
        dense ``L`` ships nothing larger than its ``n x r`` factor.  A cold
        dense kernel ships only ``L`` and lets each worker derive the
        artifacts once (they are cached per kernel fingerprint on the worker
        side).  ``params`` are :meth:`_setup`'s keywords.
        """
        return self._payload_arrays(), {"labels": self._labels}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        dist = cls.__new__(cls)
        dist._setup(arrays.get("L"), arrays.get("factor"), **params)
        if "eigenvalues" in arrays:
            dist._eigenvalues = arrays["eigenvalues"]
        if "factor_gram" in arrays:
            dist._factor_gram = arrays["factor_gram"]
        if "factor_spectrum" in arrays:
            dist._gram_eigh = (arrays["factor_spectrum"], arrays["factor_rotated"])
        return dist

    def _conditioned(self, items: Tuple[int, ...], *, spectral: bool = True, **params):
        """The kernel given ``T ⊆ Y``, held as a factor alone.

        ``F = B_O Q`` factors the Schur complement ``L^T`` and, from the same
        ``t x t`` solve, its ``r x r`` Gram
        (:func:`~repro.linalg.batch.conditioned_factor`, which raises on a
        zero-probability event), so the child never forms an
        ``(n - t) x (n - t)`` matrix.  A child that reads no spectrum
        (``spectral=False``: a 1-DPP) gets the factor alone.
        """
        if spectral:
            factor, remaining, gram = conditioned_factor(self.factor, items, self.factor_gram)
        else:
            (factor, remaining), gram = conditioned_factor(self.factor, items), None
        child = self._from_factor(factor, map(self._labels.__getitem__, remaining.tolist()),
                                  **params)
        child._factor_gram = gram
        return child

    def _normalizer_order(self) -> int:
        """Size of the decomposition the spectrum comes from: ``n`` dense, ``r`` without."""
        return self.n if self.L is not None else self.factor.shape[1]


class SymmetricDPP(_SymmetricKernel, SubsetDistribution):
    """Unconstrained symmetric DPP ``P[Y] ∝ det(L_Y)`` with PSD ``L``.

    Every oracle reads the factor spectrum ``(s, F V)``: marginals are
    ``(F V ∘ F V) · 1/(1 + s)``, joint marginals ``det(W_T W_Tᵀ)`` with
    ``W = F V (I + S)^{-1/2}``, and the normalizer ``∏(1 + λ)``; no
    ``n x n`` inverse or determinant runs.  A dense ``L``'s factor drops the
    eigenvalues below ``1e-12 · λmax``
    (:func:`~repro.linalg.batch.factor_from_eigh`), so its marginals may
    differ from the exact ``diag(K)`` by up to ``1e-12 · λmax`` each.
    """

    def __init__(self, L: np.ndarray, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        L = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
        self._setup(L, None, labels)

    @property
    def kernel(self) -> np.ndarray:
        """Marginal kernel ``K = W Wᵀ`` (formed on every call: ``n x n``)."""
        s, rotated = self._factor_spectrum()
        W = rotated / np.sqrt(1.0 + s)
        return W @ W.T

    def oracle_cost_hint(self) -> float:
        """Stacked small determinants from the factor spectrum: negligible Python lane."""
        return 0.05

    # ------------------------------------------------------------------ #
    # counting oracle and densities
    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        """``det(L_S)``, or ``det(F_S F_Sᵀ)`` without a dense ``L`` (0 beyond its rank)."""
        items = check_subset(subset, self.n)
        if self.L is not None:
            return max(principal_minor(self.L, items), 0.0)
        if len(items) > self.factor.shape[1]:
            return 0.0
        current_tracker().charge_determinant(len(items))
        return max(float(_row_gram_dets(self.factor, [items])[0]), 0.0)

    def partition_function(self) -> float:
        """``det(I + L) = ∏(1 + λ)``, charged as the decomposition the spectrum comes from."""
        current_tracker().charge_determinant(self._normalizer_order())
        return float(np.exp(np.sum(np.log1p(self.eigenvalues))))

    def counting(self, given: Iterable[int] = ()) -> float:
        """A one-subset :meth:`counting_batch`."""
        items = check_subset(given, self.n)
        return float(self.counting_batch([items])[0])

    def _kernel_minors(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``det(K_T) = det(W_T W_Tᵀ)``: one stacked determinant per size group."""
        s, rotated = self._factor_spectrum()
        W = rotated / np.sqrt(1.0 + s)
        minors = np.ones(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            if t == 0:
                continue
            if t > s.size:
                minors[positions] = 0.0
                continue
            group = [subsets[p] for p in positions]
            tracker.charge_determinant(t, count=len(group))
            minors[positions] = _row_gram_dets(W, group)
        return minors

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Counting values for many (mixed-size) ``T``: ``det(K_T) · det(I + L)``."""
        return np.clip(self._kernel_minors(subsets), 0.0, None) * self.partition_function()

    def joint_marginals_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``P[T ⊆ Y] = det(K_T)`` for many (mixed-size) ``T`` in one batched round."""
        return np.clip(self._kernel_minors(subsets), 0.0, 1.0)

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        """``K_ii = Σ_j (F V)_ij² / (1 + s_j)`` in ``O(n r)``."""
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("dpp-marginals"):
            if not items:
                s, rotated = self._factor_spectrum()
                return np.clip((rotated * rotated) @ (1.0 / (1.0 + s)), 0.0, 1.0)
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = conditioned.marginal_vector()
        return marginals

    def cardinality_distribution(self) -> np.ndarray:
        """``P[|S| = t] = e_t(λ) / ∏(1 + λ)`` from the spectrum of ``L``."""
        current_tracker().charge_determinant(self._normalizer_order())
        return spectrum_sizes(self.eigenvalues, self.n)

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "SymmetricDPP":
        """The DPP given ``T ⊆ Y``, held as a factor alone (see :meth:`_conditioned`)."""
        items = check_subset(include, self.n)
        if not items:
            return self
        return self._conditioned(items)

    def restrict_to_size(self, k: int) -> "SymmetricKDPP":
        """The k-DPP obtained by conditioning on ``|Y| = k`` (Definition 6).

        A dense ``L`` gives ``SymmetricKDPP(L, k)`` holding this kernel's
        ``symmetrized_eigh`` pair, so neither validates nor decomposes ``L``
        again; a factor-only kernel a factor-only k-DPP on the same factor
        and Gram.
        """
        if self.L is not None:
            kdpp = SymmetricKDPP(self.L, k, validate=False, labels=self._labels)
            kdpp._eigh = self._dense_eigh()
            kdpp._check_rank()
            return kdpp
        kdpp = SymmetricKDPP._from_factor(self.factor, self._labels, k=k)
        return kdpp.attach_precomputed(factor_gram=self.factor_gram)


class SymmetricKDPP(_SymmetricKernel, HomogeneousDistribution):
    """Symmetric k-DPP ``P[Y] ∝ det(L_Y) · 1[|Y| = k]`` with PSD ``L``.

    A kernel made by :meth:`condition`, like every
    :class:`~repro.distributions.lowrank.LowRankKDPP`, holds no dense ``L``
    (``L is None``): only a factor ``F`` with ``L = F Fᵀ`` and that factor's
    ``r x r`` Gram, from which every oracle answers.  A 1-DPP among them
    (``k = 1``, the last iteration of every Theorem-10 schedule) reads no
    spectrum and holds no Gram: ``P[Y = {i}] = ‖F_i‖² / ‖F‖²_F``, so its
    marginals and normalizer are its factor's squared row norms
    (:meth:`_row_norms`) and its counts ``det(F_i F_iᵀ)``.
    """

    def __init__(self, L: np.ndarray, k: int, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        L = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
        self._setup(L, None, labels, k=k)
        if validate:
            self._check_rank()

    def _setup(self, L: Optional[np.ndarray], factor: Optional[np.ndarray],
               labels: Optional[Iterable[int]], *, k: int) -> None:
        super()._setup(L, factor, labels)
        self.k = check_positive_int(k, "k", minimum=0) if k else 0
        if self.k > self.n:
            raise ValueError(f"k={k} exceeds ground set size {self.n}")

    def _check_rank(self) -> None:
        if self.k == 0:
            return
        eigs = self.eigenvalues
        top = float(eigs.max(initial=0.0))
        numerical_rank = int(np.sum(eigs > 1e-10 * max(top, 1.0)))
        if numerical_rank < self.k:
            raise ValueError(
                f"k-DPP with k={self.k} has zero mass: rank of L is {numerical_rank} < k"
            )

    def worker_payload(self):
        """The kernel's payload (see :meth:`_SymmetricKernel.worker_payload`) and ``k``."""
        return self._payload_arrays(), {"labels": self._labels, "k": self.k}

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

        Charged on every call as the decomposition the spectrum comes from:
        ``n x n`` for a dense ``L``, the factor's ``r x r`` Gram without one.
        A 1-DPP without a dense ``L`` decomposes nothing: its normalizer is
        ``e_1(λ) = tr L = ‖F‖²_F`` (:meth:`_row_norms`), charged as one
        order-1 count like each of its ``|T| = 1`` counts.  The value is
        computed once and kept (:meth:`_kept`), so a served distribution
        charges each request as a fresh one would, and computes it once.  An
        exact zero leaves every ``e_j`` unchanged bit for bit.
        """
        if self._reads_rows:
            current_tracker().charge_determinant(1)
            return self._row_norms()[1]
        current_tracker().charge_determinant(self._normalizer_order())
        return self._kept("normalizer", self._esp_normalizer)

    @property
    def _reads_rows(self) -> bool:
        """A 1-DPP without a dense ``L``: it answers from :meth:`_row_norms`."""
        return self.k == 1 and self.L is None

    def _row_norms(self) -> Tuple[np.ndarray, float]:
        """The factor's squared row norms ``‖F_i‖²`` and their sum ``‖F‖²_F`` (kept)."""
        def compute() -> Tuple[np.ndarray, float]:
            rows = np.einsum("ij,ij->i", self.factor, self.factor)
            return rows, float(rows.sum())
        return self._kept("row_norms", compute)

    def _esp_normalizer(self) -> float:
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
        """Spectral k-DPP marginals from the factor's ``r x r`` Gram eigh.

        A 1-DPP without a dense ``L`` decomposes nothing: its marginals are
        ``‖F_i‖² / ‖F‖²_F`` (:meth:`_row_norms`).  The unconditioned vector
        depends on the kernel alone: it is computed on first use and kept
        (:meth:`_kept`), and every call returns that one read-only array.
        Given ``T``, the marginals are the conditioned child's, with ones on
        ``T``, in a new array.
        """
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("kdpp-marginals"):
            if not items:
                return self._kept("marginals", self._unconditioned_marginals)
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = conditioned.marginal_vector()
        return marginals

    def _unconditioned_marginals(self) -> np.ndarray:
        if self._reads_rows:
            rows, total = self._row_norms()
            if total <= 0:
                raise ValueError("k-DPP with k=1 has zero partition function (rank too small)")
            marginals = rows / total
        else:
            marginals = kdpp_marginals_from_factor(*self._factor_spectrum(), self.k)
        marginals.flags.writeable = False
        return marginals

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``Σ_{S ⊇ T, |S| = k} det(L_S)`` for many (mixed-size) ``T`` at once.

        Equal-size groups with ``0 < |T| < k`` are read off the generating
        polynomial ``det(I + zL) · det(K(z)_T)`` on a circle, from the cached
        factor spectrum: no query decomposes anything.  The circle's
        kernel-only half (:func:`~repro.linalg.esp.kdpp_circle`) is kept
        after first use (:meth:`_kept`); each group runs the per-set half,
        :func:`~repro.linalg.esp.kdpp_counts_on_circle`.  ``|T| = k`` is one
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
                    dets = _row_gram_dets(self.factor, group)
                else:
                    dets = np.linalg.det(stacked_principal_submatrices(self.L, group))
                values[positions] = np.where(dets > 0, dets, 0.0)
                continue
            s, rotated = self._factor_spectrum()
            circle = self._kept("circle", lambda: kdpp_circle(s, self.k))
            values[positions] = kdpp_counts_on_circle(circle, rotated, group)
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
        """The ``(k - |T|)``-DPP given ``T ⊆ Y``, held as a factor alone (see :meth:`_conditioned`).

        A 1-DPP child gets no Gram: it reads no spectrum.
        """
        items = check_subset(include, self.n)
        if not items:
            return self
        if len(items) > self.k:
            raise ValueError(f"cannot condition a {self.k}-DPP on {len(items)} inclusions")
        k = self.k - len(items)
        return self._conditioned(items, spectral=k != 1, k=k)
