"""Size distributions and k-DPP marginals via elementary symmetric polynomials.

For an ensemble matrix ``L`` with eigenvalues ``λ``:

* the DPP's size distribution is ``P[|S| = t] = e_t(λ) / det(I + L)``;
* the k-DPP's partition function is ``e_k(λ)`` [KT12b];
* the k-DPP's marginals admit the spectral formula
  ``P[i ∈ S] = Σ_j (v_{ji}^2 λ_j e_{k-1}(λ_{-j})) / e_k(λ)``.

The ``e_{k-1}(λ_{-j})`` terms are computed with a leave-one-out dynamic program
that recomputes the ESP table with one eigenvalue removed (numerically safer
than the division recurrence when eigenvalues repeat or vanish); all ``n``
leave-one-out spectra go through one stacked ESP call.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.esp import elementary_symmetric_polynomials
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def dpp_size_distribution(L: np.ndarray) -> np.ndarray:
    """``P[|S| = t]`` for ``t = 0..n`` for the DPP with ensemble ``L``."""
    a = check_square(L, "L")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return np.array([1.0])
    if np.allclose(a, a.T):
        eigenvalues = np.clip(np.linalg.eigvalsh(0.5 * (a + a.T)), 0.0, None)
        esp = elementary_symmetric_polynomials(eigenvalues)
    else:
        # complex spectrum: the polynomials are real, the eigenvalues need not be
        esp = np.clip(elementary_symmetric_polynomials(np.linalg.eigvals(a)).real, 0.0, None)
    total = esp.sum()
    if total <= 0:
        raise ValueError("ensemble matrix defines a zero measure")
    return esp / total


def leave_one_out_esp(values: np.ndarray, order: int) -> np.ndarray:
    """``e_order(values with entry j removed)`` for every ``j`` (vector of length n)."""
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if order < 0 or order > n - 1:
        return np.zeros(n)
    # row j is ``vals`` without entry j, in order: n² floats, the size of L
    rest = np.broadcast_to(vals, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    return elementary_symmetric_polynomials(rest, max_order=order)[order]


def kdpp_marginals_spectral(L: np.ndarray, k: int) -> np.ndarray:
    """All marginals ``P[i ∈ S]`` of the k-DPP with symmetric PSD ensemble ``L``.

    One eigendecomposition plus an ``O(n^2 k)`` post-processing; charged as a
    single batched-oracle round.
    """
    a = check_square(L, "L")
    n = a.shape[0]
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    tracker = current_tracker()
    tracker.charge_determinant(n)
    if k == 0:
        return np.zeros(n)
    if k == n:
        return np.ones(n)
    eigenvalues, vectors = np.linalg.eigh(0.5 * (a + a.T))
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    ek = elementary_symmetric_polynomials(eigenvalues, max_order=k)[k]
    if ek <= 0:
        raise ValueError(f"k-DPP with k={k} has zero partition function (rank too small)")
    loo = leave_one_out_esp(eigenvalues, k - 1)
    weights = eigenvalues * loo / ek  # probability eigenvector j is selected
    marginals = (vectors ** 2) @ weights
    return np.clip(marginals, 0.0, 1.0)
