"""Size distributions and k-DPP marginals via elementary symmetric polynomials.

For an ensemble matrix ``L`` with eigenvalues ``λ``:

* the DPP's size distribution is ``P[|S| = t] = e_t(λ) / det(I + L)``;
* the k-DPP's partition function is ``e_k(λ)`` [KT12b];
* the k-DPP's marginals admit the spectral formula
  ``P[i ∈ S] = Σ_j (v_{ji}^2 λ_j e_{k-1}(λ_{-j})) / e_k(λ)``.

Marginals are computed in factor space: for ``L = F Fᵀ`` with ``F`` of
``r`` columns, one ``r x r`` eigendecomposition ``FᵀF = V diag(s) Vᵀ`` gives
the nonzero spectrum ``s`` of ``L`` and, in ``F V``, its eigenvectors scaled
by ``√s`` (:func:`kdpp_marginals_from_factor`).
:class:`~repro.dpp.symmetric.SymmetricKDPP` answers marginals through that
one routine, with a dense ``L`` and without one (a conditioned child, or a
:class:`~repro.distributions.lowrank.LowRankKDPP`), except that a 1-DPP
without a dense ``L`` reads its factor's squared row norms; the unconstrained
:class:`~repro.dpp.symmetric.SymmetricDPP` reads ``K_ii`` off the same pair,
and its size distribution is :func:`spectrum_sizes`, the normalized ``e_t(λ)``.

The ``e_{k-1}(λ_{-j})`` terms are computed with a leave-one-out dynamic program
that recomputes the ESP table with one eigenvalue removed (numerically safer
than the division recurrence when eigenvalues repeat or vanish); all
leave-one-out spectra go through one stacked ESP call.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.esp import elementary_symmetric_polynomials


def spectrum_sizes(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """``P[|S| = t]``, ``t = 0..n``, of the DPP on ``n`` items whose ensemble
    has the nonzero spectrum ``eigenvalues`` (the ``e_t(λ)``, normalized)."""
    weights = np.zeros(n + 1, dtype=float)
    weights[:eigenvalues.size + 1] = elementary_symmetric_polynomials(eigenvalues)
    return normalize_sizes(weights)


def normalize_sizes(weights: np.ndarray) -> np.ndarray:
    """``P[|S| = t]`` from the size weights ``Σ_{|S| = t} det(L_S)``, ``t = 0..n``."""
    total = weights.sum()
    if total <= 0:
        raise ValueError("ensemble matrix defines a zero measure")
    return weights / total


def leave_one_out_esp(values: np.ndarray, order: int) -> np.ndarray:
    """``e_order(values with entry j removed)`` for every ``j`` (vector of length n).

    Order 0 is ``e_0 = 1`` for every ``j``, the program's own value bit for
    bit, so it runs no program.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if order < 0 or order > n - 1:
        return np.zeros(n)
    if order == 0:
        return np.ones(n)
    # row j is ``vals`` without entry j, in order: n² floats, the size of L
    rest = np.broadcast_to(vals, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    return elementary_symmetric_polynomials(rest, max_order=order)[order]


def kdpp_marginals_from_factor(spectrum: np.ndarray, rotated: np.ndarray,
                               k: int) -> np.ndarray:
    """All marginals ``P[i ∈ S]`` of the k-DPP with ensemble ``L = F Fᵀ``.

    ``spectrum`` and ``rotated`` come from one eigendecomposition of the
    ``r x r`` Gram ``FᵀF = V diag(s) Vᵀ``: ``spectrum`` is the clipped ``s``
    and ``rotated = F V``, whose column ``j`` is an eigenvector of ``L``
    scaled by ``√s_j``.  So ``P[i ∈ S] = Σ_j (F V)_{ij}² e_{k-1}(s_{-j}) /
    e_k(s)``: the spectral formula with the eigenvector's ``1/s_j`` cancelled
    against the selection weight's ``s_j``, which leaves zero eigenvalues
    nothing to divide by.  ``O(n·r + r²·k)`` after the decomposition, which
    the caller owns (and charges).
    """
    s = np.asarray(spectrum, dtype=float)
    W = np.asarray(rotated, dtype=float)
    n = W.shape[0]
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)
    ek = elementary_symmetric_polynomials(s, max_order=k)[k]
    if ek <= 0:
        raise ValueError(f"k-DPP with k={k} has zero partition function (rank too small)")
    weights = leave_one_out_esp(s, k - 1) / ek  # P[eigenvector j selected] / s_j
    return np.clip((W * W) @ weights, 0.0, 1.0)
