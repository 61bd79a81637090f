"""Low-rank kernel representation and DPP oracles that never form ``B Bᵀ``.

Every dense path in the repo materializes the ``n x n`` ensemble matrix and
pays ``O(n²)`` memory plus ``O(n³)`` factorization — which caps the paper's
parallel speedups around ``n ~ 10^4``.  This module is the sublinear tier's
foundation: a first-class factor representation

* :class:`LowRankKernel` — an explicit ``n x k`` factor ``B`` standing for
  ``L = B Bᵀ`` (validated eagerly, fingerprinted as the factor pair, never
  materialized unless explicitly asked), with a Nyström / ridge-leverage-score
  sketch constructor for dense inputs;
* :class:`LowRankDPP` and :class:`LowRankKDPP` — the Definition 3 and
  Definition 6 distributions: a :class:`~repro.dpp.symmetric.SymmetricDPP`
  and a :class:`~repro.dpp.symmetric.SymmetricKDPP` that hold ``B`` and never
  ``L``, so their counts, marginals and conditioning are those classes'
  factor-space oracles, which every conditioned symmetric kernel runs: the
  dual ``k x k`` Gram ``C = BᵀB`` carries the nonzero spectrum of ``L``, and
  marginals cost ``O(n k)`` via ``K = B (I + C)^{-1} Bᵀ``.

Memory is ``O(n k)`` throughout and no routine touches an ``n x n``
intermediate, so ``n = 10^5``–``10^6`` ground sets are served in factor-sized
time; the matching sampler lives in :mod:`repro.dpp.intermediate`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.linalg.batch import psd_factor, symmetrized_eigh
from repro.utils.fingerprint import kernel_fingerprint
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ValidationError, check_factor, check_positive_int

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
        eigenvalues, vectors = symmetrized_eigh(a)
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
        w_eigenvalues, w_vectors = symmetrized_eigh(W)
        w_keep = w_eigenvalues > tol * max(float(w_eigenvalues.max(initial=0.0)), 1.0)
        if not np.any(w_keep):
            raise ValidationError("Nyström landmark block is numerically zero; "
                                  "raise oversample or pass rank=None")
        sketch = C @ (w_vectors[:, w_keep] / np.sqrt(w_eigenvalues[w_keep]))
        # truncate the sketch to exactly `rank` well-conditioned columns
        gram = sketch.T @ sketch
        g_eigenvalues, g_vectors = symmetrized_eigh(gram)
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


class LowRankDPP(SymmetricDPP):
    """Unconstrained DPP ``P[Y] ∝ det(L_Y)`` with ``L = B Bᵀ`` held as ``B``.

    A :class:`~repro.dpp.symmetric.SymmetricDPP` without a dense ``L``: the
    normalizer ``det(I + L) = ∏(1 + λ)``, the marginals, the joint marginals
    ``det(K_T)`` and the size distribution come from one eigendecomposition
    of the dual Gram ``BᵀB = V diag(λ) Vᵀ``, and conditioning keeps the
    projected factor.  This class adds only the construction from a factor.
    """

    def __init__(self, kernel, *, validate: bool = True,
                 labels: Optional[Sequence[int]] = None):
        self._setup(None, _as_factor(kernel, validate=validate), labels)


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
        self._setup(None, _as_factor(kernel, validate=validate), labels, k=k)
        rank = self.factor.shape[1]
        if self.k > rank:
            raise ValueError(
                f"k-DPP with k={self.k} has zero mass: factor rank is {rank} < k")

    def oracle_cost_hint(self) -> float:
        """Factor-space oracles: reduced-rank LAPACK, a thin Python lane."""
        return 0.05
