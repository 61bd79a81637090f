"""Low-rank kernel representation and DPP oracles that never form ``B Bᵀ``.

Every dense path in the repo materializes the ``n x n`` ensemble matrix and
pays ``O(n²)`` memory plus ``O(n³)`` factorization — which caps the paper's
parallel speedups around ``n ~ 10^4``.  This module is the sublinear tier's
foundation: a first-class factor representation

* :class:`LowRankKernel` — an explicit ``n x k`` factor ``B`` standing for
  ``L = B Bᵀ`` (validated eagerly, fingerprinted as the factor pair, never
  materialized unless explicitly asked), with a Nyström / ridge-leverage-score
  sketch constructor for dense inputs;
* :class:`LowRankDPP` — the Definition 3 distribution over that
  representation, with all counting-oracle routes in factor space: the dual
  ``k x k`` Gram ``C = BᵀB`` carries the nonzero spectrum of ``L``,
  conditioned spectra reduce through
  :func:`repro.linalg.batch.lowrank_conditioned_gram`, and marginals cost
  ``O(n k)`` via the push-through identity ``K = B (I + C)^{-1} Bᵀ``;
* :class:`LowRankKDPP` — the Definition 6 distribution: a
  :class:`~repro.dpp.symmetric.SymmetricKDPP` that holds ``B`` and never
  ``L``, so its counts, marginals and conditioning are that class's
  factor-space oracles, which every conditioned symmetric k-DPP runs.

Memory is ``O(n k)`` throughout and no routine touches an ``n x n``
intermediate, so ``n = 10^5``–``10^6`` ground sets are served in factor-sized
time; the matching sampler lives in :mod:`repro.dpp.intermediate`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import SubsetDistribution
from repro.dpp.symmetric import SymmetricKDPP
from repro.linalg.batch import conditioned_factor, group_by_size, lowrank_conditioned_gram
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.pram.tracker import current_tracker
from repro.utils.fingerprint import kernel_fingerprint
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_factor, check_positive_int, check_subset

__all__ = ["LowRankKernel", "LowRankDPP", "LowRankKDPP"]

#: relative eigenvalue threshold shared by every numerical-rank decision here
_RANK_TOL = 1e-10


class LowRankKernel:
    """An ``n x k`` factor ``B`` standing for the PSD ensemble ``L = B Bᵀ``.

    The factor is validated eagerly (shape, finiteness, full column rank —
    see :func:`repro.utils.validation.check_factor`), canonicalized to a
    C-contiguous read-only ``float64`` array, and identified everywhere by
    its *factor-pair* fingerprint (``kind="lowrank"`` over ``B``) — so the
    serving layer's caches and the cluster ring shard ``k``-sized artifacts
    instead of ``n x n`` ones.

    ``L`` itself is never formed implicitly; :meth:`materialize` exists for
    small-``n`` ground-truth checks only.
    """

    def __init__(self, factor: np.ndarray, *, validate: bool = True):
        if isinstance(factor, LowRankKernel):
            factor = factor.factor
        if validate:
            arr = check_factor(factor, "factor")
        else:
            arr = np.ascontiguousarray(factor, dtype=float)
            if arr.ndim != 2:
                raise ValidationError(
                    f"factor must be a 2-D (n, k) array, got shape {arr.shape}")
        arr = arr.copy() if not arr.flags.owndata or arr.flags.writeable else arr
        arr.setflags(write=False)
        self.factor = arr
        self.n = int(arr.shape[0])
        self.rank = int(arr.shape[1])

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the *represented* ensemble matrix ``L`` (``(n, n)``)."""
        return (self.n, self.n)

    @property
    def nbytes(self) -> int:
        return int(self.factor.nbytes)

    @property
    def fingerprint(self) -> str:
        """The factor-pair content key (``kernel_fingerprint(B, kind="lowrank")``)."""
        return kernel_fingerprint(self.factor, kind="lowrank")

    def gram(self) -> np.ndarray:
        """The dual ``k x k`` Gram ``C = BᵀB`` (carries the nonzero spectrum)."""
        return self.factor.T @ self.factor

    def materialize(self) -> np.ndarray:
        """The dense ``n x n`` ensemble ``L = B Bᵀ`` — ``O(n²)``; tests only."""
        return self.factor @ self.factor.T

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LowRankKernel(n={self.n}, rank={self.rank})"

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, L: np.ndarray, *, rank: Optional[int] = None,
                   oversample: float = 4.0, seed: SeedLike = None,
                   tol: float = _RANK_TOL) -> "LowRankKernel":
        """Factor a dense PSD ensemble: exact when possible, Nyström/RLS sketch on request.

        * ``rank=None`` — one rank-revealing eigendecomposition
          (:func:`repro.linalg.batch.psd_factor`): exact, ``B`` gets
          ``rank(L)`` columns.
        * ``rank=r`` — a Nyström approximation from ``min(n, oversample · r)``
          landmark columns drawn by ridge-leverage scores (ridge set to the
          spectral tail mass ``Σ_{j>r} λ_j / r``, the standard RLS choice),
          truncated back to exactly ``r`` columns.  This is the
          ``O(n · (r·oversample)²)`` sketch route huge inputs would use — kept
          numerically honest here by computing the leverage scores from one
          eigendecomposition, which a dense input has already paid for.
        """
        from repro.linalg.batch import psd_factor

        a = np.asarray(L, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"L must be square, got shape {a.shape}")
        if rank is None:
            factor = psd_factor(a, tol=tol)
            if factor.shape[1] == 0:
                raise ValidationError("L is numerically zero: nothing to factor")
            return cls(factor)
        r = check_positive_int(rank, "rank")
        n = a.shape[0]
        if r > n:
            raise ValidationError(f"rank must lie in [1, {n}], got {r}")
        rng = as_generator(seed)
        eigenvalues, vectors = np.linalg.eigh(0.5 * (a + a.T))
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        order = np.argsort(eigenvalues)[::-1]
        tail = float(eigenvalues[order[r:]].sum())
        if tail <= tol * max(float(eigenvalues.max(initial=0.0)), 1.0):
            # the input is (numerically) rank <= r already: exact truncation
            keep = order[:r][eigenvalues[order[:r]] > 0]
            if keep.size == 0:
                raise ValidationError("L is numerically zero: nothing to factor")
            return cls(vectors[:, keep] * np.sqrt(eigenvalues[keep]))
        ridge = tail / r
        # ridge leverage scores l_i = [L (L + ridge I)^{-1}]_{ii} from the eigh
        weights = eigenvalues / (eigenvalues + ridge)
        scores = np.clip((vectors ** 2) @ weights, 0.0, None)
        total = float(scores.sum())
        if total <= 0:
            raise ValidationError("L has no spectral mass to sketch")
        m = int(min(n, max(r + 1, round(oversample * r))))
        landmarks = np.unique(rng.choice(n, size=m, replace=True, p=scores / total))
        C = a[:, landmarks]
        W = a[np.ix_(landmarks, landmarks)]
        w_eigenvalues, w_vectors = np.linalg.eigh(0.5 * (W + W.T))
        w_keep = w_eigenvalues > tol * max(float(w_eigenvalues.max(initial=0.0)), 1.0)
        if not np.any(w_keep):
            raise ValidationError("Nyström landmark block is numerically zero; "
                                  "raise oversample or pass rank=None")
        sketch = C @ (w_vectors[:, w_keep] / np.sqrt(w_eigenvalues[w_keep]))
        # truncate the sketch to exactly `rank` well-conditioned columns
        gram = sketch.T @ sketch
        g_eigenvalues, g_vectors = np.linalg.eigh(0.5 * (gram + gram.T))
        g_order = np.argsort(g_eigenvalues)[::-1]
        keep = g_order[:r][g_eigenvalues[g_order[:r]]
                           > tol * max(float(g_eigenvalues.max(initial=0.0)), 1.0)]
        if keep.size == 0:
            raise ValidationError("Nyström sketch collapsed; raise oversample")
        return cls(sketch @ g_vectors[:, keep])


def _as_factor(kernel, name: str = "kernel", *, validate: bool = True) -> np.ndarray:
    """The canonical factor array behind ``kernel`` (LowRankKernel or ndarray)."""
    if isinstance(kernel, LowRankKernel):
        return kernel.factor
    return check_factor(kernel, name) if validate \
        else np.ascontiguousarray(kernel, dtype=float)


class LowRankDPP(SubsetDistribution):
    """Unconstrained DPP ``P[Y] ∝ det(L_Y)`` with ``L = B Bᵀ`` held as ``B``.

    Counting oracle in factor space:
    ``Σ_{S ⊇ T} det(L_S) = det(L_T) · det(I_k + C_T)`` where ``C_T`` is the
    rank-``k`` Gram reduction of the conditioned spectrum
    (:func:`repro.linalg.batch.lowrank_conditioned_gram`) — ``det(I + L^T)``
    equals ``det(I_k + C_T)`` because zero eigenvalues contribute factors of 1.
    """

    def __init__(self, kernel, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        self.factor = _as_factor(kernel, validate=validate)
        self.n = int(self.factor.shape[0])
        self.rank = int(self.factor.shape[1])
        self._labels = tuple(int(i) for i in labels) if labels is not None \
            else tuple(range(self.n))
        self._gram: Optional[np.ndarray] = None
        self._dual_eigenvalues: Optional[np.ndarray] = None
        self._dual_vectors: Optional[np.ndarray] = None
        self._z: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return self._labels

    @property
    def gram(self) -> np.ndarray:
        """Cached dual Gram ``C = BᵀB`` (``k x k``)."""
        if self._gram is None:
            self._gram = self.factor.T @ self.factor
        return self._gram

    @property
    def dual_eigenvalues(self) -> np.ndarray:
        """Clipped spectrum of the dual Gram — the nonzero spectrum of ``L``."""
        if self._dual_eigenvalues is None:
            self._compute_dual()
        return self._dual_eigenvalues

    @property
    def dual_vectors(self) -> np.ndarray:
        """Eigenvectors of the dual Gram (columns, ascending eigenvalue order)."""
        if self._dual_vectors is None:
            self._compute_dual()
        return self._dual_vectors

    def _compute_dual(self) -> None:
        gram = self.gram
        current_tracker().charge_determinant(self.rank)
        eigenvalues, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
        self._dual_eigenvalues = np.clip(eigenvalues, 0.0, None)
        self._dual_vectors = vectors

    def attach_precomputed(self, *, gram: Optional[np.ndarray] = None,
                           dual_eigenvalues: Optional[np.ndarray] = None,
                           dual_vectors: Optional[np.ndarray] = None) -> "LowRankDPP":
        """Install serving-layer artifacts so later queries skip the dual eigh.

        The :class:`~repro.service.cache.FactorizationCache` computes these
        with the identical routines the lazy properties above run (``BᵀB``,
        then one symmetrized clipped ``eigh``), so fixed-seed samples agree
        bitwise with the uncached path.
        """
        k = self.rank
        if gram is not None:
            if gram.shape != (k, k):
                raise ValueError("precomputed gram has mismatched shape")
            self._gram = np.asarray(gram, dtype=float)
        if dual_eigenvalues is not None:
            if dual_eigenvalues.shape != (k,):
                raise ValueError("precomputed dual eigenvalues have mismatched shape")
            self._dual_eigenvalues = np.asarray(dual_eigenvalues, dtype=float)
        if dual_vectors is not None:
            if dual_vectors.shape != (k, k):
                raise ValueError("precomputed dual vectors have mismatched shape")
            self._dual_vectors = np.asarray(dual_vectors, dtype=float)
        return self

    # ------------------------------------------------------------------ #
    # engine contracts: shipping and planner hint
    # ------------------------------------------------------------------ #
    def worker_payload(self):
        """Ship only ``B`` (``n·k`` floats) plus whichever duals are warm.

        This is the whole point of the representation at process/cluster
        boundaries: the dense classes ship ``n²`` floats, this ships ``n·k``
        — and the warm dual artifacts are ``k``-sized, so they always travel.
        """
        arrays = {"factor": self.factor}
        if self._gram is not None:
            arrays["gram"] = self._gram
        if self._dual_eigenvalues is not None:
            arrays["dual_eigenvalues"] = self._dual_eigenvalues
        if self._dual_vectors is not None:
            arrays["dual_vectors"] = self._dual_vectors
        return arrays, {"labels": self._labels, "z": self._z}

    @classmethod
    def from_worker_payload(cls, arrays, params):
        dist = cls(arrays["factor"], validate=False, labels=params["labels"])
        dist.attach_precomputed(
            gram=arrays.get("gram"),
            dual_eigenvalues=arrays.get("dual_eigenvalues"),
            dual_vectors=arrays.get("dual_vectors"))
        if params["z"] is not None:
            dist._z = float(params["z"])
        return dist

    def oracle_cost_hint(self) -> float:
        """Factor-space oracles: reduced-rank LAPACK, a thin Python lane."""
        return 0.05

    # ------------------------------------------------------------------ #
    def unnormalized(self, subset: Iterable[int]) -> float:
        """``det(L_S) = det(B_S B_Sᵀ)`` without touching ``L`` (0 beyond rank)."""
        items = check_subset(subset, self.n)
        if not items:
            return 1.0
        if len(items) > self.rank:
            return 0.0
        current_tracker().charge_determinant(len(items))
        block = self.factor[list(items)]
        return max(float(np.linalg.det(block @ block.T)), 0.0)

    def partition_function(self) -> float:
        """``det(I + L) = Π_j (1 + λ_j(BᵀB))`` — one ``k x k`` eigh, cached."""
        if self._z is None:
            self._z = float(np.exp(np.sum(np.log1p(self.dual_eigenvalues))))
        return self._z

    def counting(self, given: Iterable[int] = ()) -> float:
        items = check_subset(given, self.n)
        if not items:
            return self.partition_function()
        return float(self.counting_batch([items])[0])

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """``det(L_T) · det(I_k + C_T)`` for many (mixed-size) ``T`` at once."""
        values = np.zeros(len(subsets), dtype=float)
        tracker = current_tracker()
        for t, positions in group_by_size(subsets).items():
            group = [subsets[p] for p in positions]
            if t == 0:
                values[positions] = self.partition_function()
                continue
            if t > self.rank:
                continue
            det_T, reduced = lowrank_conditioned_gram(self.factor, self.gram, group)
            tracker.charge_determinant(self.rank, count=len(group))
            tails = np.linalg.det(np.eye(self.rank)[None] + reduced)
            values[positions] = np.where(det_T > 0, det_T * np.clip(tails, 0.0, None), 0.0)
        return values

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        """All marginals in ``O(n k)``: ``K_ii = Σ_j (B v_j)_i² / (1 + λ_j)``."""
        items = check_subset(given, self.n)
        tracker = current_tracker()
        with tracker.round("lowrank-dpp-marginals"):
            if not items:
                return self._root_marginals()
            conditioned = self.condition(items)
            marginals = np.ones(self.n, dtype=float)
            remaining = [i for i in range(self.n) if i not in items]
            marginals[remaining] = conditioned._root_marginals()
        return marginals

    def _root_marginals(self) -> np.ndarray:
        eigenvalues = self.dual_eigenvalues
        W = self.factor @ self.dual_vectors          # (n, k); column j = B v_j
        # K_ii = b_iᵀ (I + C)^{-1} b_i  =  Σ_j (W_ij)² / (1 + λ_j)
        marginals = (W * W) @ (1.0 / (1.0 + eigenvalues))
        return np.clip(marginals, 0.0, 1.0)

    def cardinality_distribution(self) -> np.ndarray:
        esp = elementary_symmetric_polynomials(self.dual_eigenvalues,
                                               max_order=min(self.rank, self.n))
        weights = np.zeros(self.n + 1, dtype=float)
        weights[:esp.size] = np.clip(esp, 0.0, None)
        total = weights.sum()
        if total <= 0:
            raise ValueError("low-rank ensemble defines a zero measure")
        return weights / total

    # ------------------------------------------------------------------ #
    def condition(self, include: Iterable[int]) -> "LowRankDPP":
        items = check_subset(include, self.n)
        if not items:
            return self
        # conditioning stays inside the representation; the projected factor
        # is deliberately column-rank-deficient (rank drops by |T|): skip the
        # full-rank gate, the oracles handle it
        conditioned, remaining = conditioned_factor(self.factor, items)
        return LowRankDPP(LowRankKernel(conditioned, validate=False), validate=False,
                          labels=[self._labels[i] for i in remaining])

    def restrict_to_size(self, k: int) -> "LowRankKDPP":
        """The k-DPP obtained by conditioning on ``|Y| = k`` (Definition 6)."""
        return LowRankKDPP(LowRankKernel(self.factor, validate=False), k)


class LowRankKDPP(SymmetricKDPP):
    """k-DPP ``P[Y] ∝ det(L_Y) · 1[|Y| = k]`` with ``L = B Bᵀ`` held as ``B``.

    A :class:`~repro.dpp.symmetric.SymmetricKDPP` without a dense ``L``: the
    counts ``[z^k] det(I + zL) · det(K(z)_T)``, the marginals and the
    normalizer come from one eigendecomposition of the dual Gram
    ``BᵀB = V diag(λ) Vᵀ``, ``|T| = k`` is ``det(B_T B_Tᵀ)``, and
    conditioning keeps the projected factor.  This class adds only the
    construction from a factor and its own cost hint.
    """

    def __init__(self, kernel, k: int, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        self._setup(None, _as_factor(kernel, validate=validate), k, labels)
        rank = self.factor.shape[1]
        if self.k > rank:
            raise ValueError(
                f"k-DPP with k={self.k} has zero mass: factor rank is {rank} < k")

    def oracle_cost_hint(self) -> float:
        """Factor-space oracles: reduced-rank LAPACK, a thin Python lane."""
        return 0.05
