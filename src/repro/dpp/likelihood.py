"""Unnormalized DPP densities and principal-minor sums.

* ``log μ(S) = log det(L_{S,S})`` — one principal minor per subset (the
  minor itself is :func:`repro.linalg.determinant.principal_minor`).
* ``Σ_{|S| = j} det(L_{S,S})`` — the ``j``-th coefficient sum of principal
  minors, the ``j``-th elementary symmetric polynomial of the spectrum
  (works for nonsymmetric matrices, whose eigenvalues may be complex but
  whose minor sums are real).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.linalg.esp import elementary_symmetric_polynomials
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def dpp_log_unnormalized(L: np.ndarray, subset: Iterable[int]) -> float:
    """``log det(L_{S,S})``; returns ``-inf`` for nonpositive minors."""
    a = check_square(L, "L")
    idx = np.asarray(sorted(int(i) for i in subset), dtype=int)
    if idx.size == 0:
        return 0.0
    sub = a[np.ix_(idx, idx)]
    current_tracker().charge_determinant(idx.size)
    sign, logabs = np.linalg.slogdet(sub)
    if sign <= 0:
        return -np.inf
    return float(logabs)


def all_principal_minor_sums(matrix: np.ndarray) -> np.ndarray:
    """``[Σ_{|S|=j} det(M_S)]_{j=0..n}`` from one eigenvalue call."""
    a = check_square(matrix, "matrix")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return np.array([1.0])
    return elementary_symmetric_polynomials(np.linalg.eigvals(a)).real
