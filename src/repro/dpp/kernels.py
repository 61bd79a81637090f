"""Ensemble (L) and marginal (K) kernel conversions — Section 3.2, Eqs. (1)–(2).

``K = L (I + L)^{-1} = I - (I + L)^{-1}``  and  ``L = K (I - K)^{-1}``.

For symmetric DPPs ``0 ⪯ K ⪯ I``; the conversions below work for nonsymmetric
ensembles too (the identities are purely algebraic), with validation split
into :func:`validate_ensemble` (PSD or nPSD as requested) and
:func:`validate_kernel`.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.psd import is_npsd, is_psd, symmetrize
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def ensemble_to_kernel(L: np.ndarray) -> np.ndarray:
    """Marginal kernel ``K = L (I + L)^{-1}`` (Eq. 1)."""
    a = check_square(L, "L")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return a.copy()
    return a @ np.linalg.inv(np.eye(n) + a)


def kernel_to_ensemble(K: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Ensemble matrix ``L = K (I - K)^{-1}`` (Eq. 2).

    Raises if ``I - K`` is singular (an element contained almost surely has no
    finite ensemble representation); pass a small ``ridge`` to regularize.
    """
    k = check_square(K, "K")
    n = k.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return k.copy()
    residual = np.eye(n) - k + ridge * np.eye(n)
    sign, logabs = np.linalg.slogdet(residual)
    if sign <= 0 or logabs < -30:
        raise ValueError("I - K is singular: kernel has an eigenvalue at 1 (use a ridge)")
    return k @ np.linalg.inv(residual)


def validate_ensemble(L: np.ndarray, *, symmetric: bool = True, tol: float = 1e-8) -> np.ndarray:
    """Validate an ensemble matrix (PSD if ``symmetric`` else nPSD, Def. 3/4)."""
    a = check_square(L, "L")
    if symmetric:
        if not np.allclose(a, a.T, atol=tol * max(1.0, np.abs(a).max())):
            raise ValueError("symmetric DPP requires a symmetric ensemble matrix")
        if not is_psd(a, tol=tol):
            raise ValueError("symmetric DPP requires a PSD ensemble matrix (L ⪰ 0)")
    else:
        if not is_npsd(a, tol=tol):
            raise ValueError("nonsymmetric DPP requires L + Lᵀ ⪰ 0 (Definition 4)")
    return a


def validate_kernel(K: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Validate a symmetric marginal kernel ``0 ⪯ K ⪯ I``."""
    k = check_square(K, "K")
    if not np.allclose(k, k.T, atol=tol * max(1.0, np.abs(k).max())):
        raise ValueError("marginal kernel must be symmetric")
    eigenvalues = np.linalg.eigvalsh(symmetrize(k))
    if eigenvalues.min() < -tol or eigenvalues.max() > 1 + tol:
        raise ValueError("marginal kernel eigenvalues must lie in [0, 1]")
    return k

