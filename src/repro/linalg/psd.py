"""PSD / nonsymmetric-PSD validation and construction helpers.

Definitions 3–5 of the paper: a symmetric DPP requires ``L ⪰ 0``; a
nonsymmetric DPP requires ``L + Lᵀ ⪰ 0`` (nPSD), which by [Gar+19, Lemma 1]
guarantees all principal minors are nonnegative.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_square

_DEFAULT_TOL = 1e-10


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """``(M + Mᵀ) / 2``."""
    a = check_square(matrix, "matrix")
    return 0.5 * (a + a.T)


def is_psd(matrix: np.ndarray, tol: float = _DEFAULT_TOL) -> bool:
    """True iff ``matrix`` is symmetric positive semidefinite (within ``tol``)."""
    a = check_square(matrix, "matrix")
    if a.shape[0] == 0:
        return True
    if not np.allclose(a, a.T, atol=max(tol, 1e-8) * max(1.0, np.abs(a).max())):
        return False
    eigenvalues = np.linalg.eigvalsh(symmetrize(a))
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    return bool(eigenvalues.min() >= -tol * scale)


def is_npsd(matrix: np.ndarray, tol: float = _DEFAULT_TOL) -> bool:
    """True iff ``matrix + matrixᵀ ⪰ 0`` (the paper's nPSD condition, Def. 4)."""
    a = check_square(matrix, "matrix")
    if a.shape[0] == 0:
        return True
    eigenvalues = np.linalg.eigvalsh(a + a.T)
    scale = max(1.0, float(np.abs(eigenvalues).max()))
    return bool(eigenvalues.min() >= -tol * scale)


def project_psd(matrix: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Nearest PSD matrix (in Frobenius norm) to ``symmetrize(matrix)``.

    Eigenvalues are clipped at ``floor`` (use a small positive floor to obtain
    a strictly positive definite matrix).
    """
    a = symmetrize(matrix)
    if a.shape[0] == 0:
        return a
    eigenvalues, vectors = np.linalg.eigh(a)
    clipped = np.clip(eigenvalues, floor, None)
    return (vectors * clipped) @ vectors.T


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root ``M^{1/2}``."""
    a = check_square(matrix, "matrix")
    if a.shape[0] == 0:
        return a
    if not is_psd(a, tol=1e-8):
        raise ValueError("psd_sqrt requires a symmetric PSD matrix")
    eigenvalues, vectors = np.linalg.eigh(symmetrize(a))
    clipped = np.clip(eigenvalues, 0.0, None)
    return (vectors * np.sqrt(clipped)) @ vectors.T


def random_orthogonal(n: int, seed: SeedLike = None) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR of a Gaussian matrix."""
    rng = as_generator(seed)
    if n == 0:
        return np.zeros((0, 0))
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    # Fix the sign convention so the distribution is uniform over O(n).
    q = q * np.sign(np.diag(r))
    return q
