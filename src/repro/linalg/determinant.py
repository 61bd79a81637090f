"""Determinants and principal minors.

Unnormalized DPP probabilities are principal minors ``det(L_{S,S})``; partition
functions are determinants like ``det(L + I)``.  This module provides:

* scalar determinants / log-determinants (depth-charged),
* :func:`principal_minor` for a single index subset.

Many principal minors in one batched-oracle round go through
:func:`repro.linalg.batch.grouped_principal_minors`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def determinant(matrix: np.ndarray) -> float:
    """Determinant of a (possibly empty) square matrix, charged as one oracle call."""
    a = check_square(matrix, "matrix")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return 1.0
    return float(np.linalg.det(a))


def log_determinant(matrix: np.ndarray) -> Tuple[float, float]:
    """``(sign, logabsdet)`` of a square matrix (empty matrix -> ``(1, 0)``)."""
    a = check_square(matrix, "matrix")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if n == 0:
        return 1.0, 0.0
    sign, logabs = np.linalg.slogdet(a)
    return float(sign), float(logabs)


def principal_minor(matrix: np.ndarray, subset: Iterable[int]) -> float:
    """``det(M_{S,S})`` for the given index subset ``S`` (empty ``S`` -> 1)."""
    a = check_square(matrix, "matrix")
    idx = np.asarray(sorted(int(i) for i in subset), dtype=int)
    if idx.size == 0:
        current_tracker().charge_determinant(0)
        return 1.0
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise ValueError(f"subset {idx.tolist()} out of range for matrix of size {a.shape[0]}")
    sub = a[np.ix_(idx, idx)]
    current_tracker().charge_determinant(idx.size)
    return float(np.linalg.det(sub))
