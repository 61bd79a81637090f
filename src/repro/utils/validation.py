"""Lightweight argument validation used across the library.

The helpers raise ``ValueError``/``TypeError`` with actionable messages so
user-facing samplers fail fast on malformed kernels, probabilities, or subsets.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


class ValidationError(ValueError):
    """Raised when user-supplied kernel data is malformed.

    A subclass of ``ValueError`` so existing ``except ValueError`` handlers
    keep working; raised by the validators below (and the low-rank kernel
    front end) so malformed factors fail at construction with an actionable
    message instead of surfacing as a deep LAPACK error mid-sample.
    """


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a 2-D square ``float64`` array or raise."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_subset(subset: Iterable[int], n: int, name: str = "subset") -> tuple:
    """Validate that ``subset`` has distinct elements inside ``[0, n)``."""
    items = tuple(int(i) for i in subset)
    if len(set(items)) != len(items):
        raise ValueError(f"{name} has repeated elements: {items}")
    if items and (min(items) < 0 or max(items) >= n):
        raise ValueError(f"{name} {items} is outside the ground set [0, {n})")
    return tuple(sorted(items))


def check_factor(factor: np.ndarray, name: str = "factor", *,
                 require_full_rank: bool = True, tol: float = 1e-10) -> np.ndarray:
    """Validate an explicit ``n x k`` kernel factor ``B`` (for ``L = B Bᵀ``).

    Returns a C-contiguous ``float64`` copy-on-demand canonicalization of
    ``factor`` — fortran-ordered, non-contiguous, or integer input is accepted
    and normalized, because memory layout is a representation detail, not an
    error.  What *is* rejected (with :class:`ValidationError`):

    * anything that is not a 2-D array with ``n >= 1`` rows and
      ``1 <= k <= n`` columns,
    * non-finite entries,
    * (when ``require_full_rank``) a numerically column-rank-deficient ``B``
      — the Gram ``BᵀB`` would be singular, and downstream eigensolves /
      determinant ratios degrade in confusing ways; trim the dependent
      columns (e.g. via ``LowRankKernel.from_dense``) instead.

    The rank test is one ``k x k`` ``eigvalsh`` — ``O(n k² + k³)``, never
    ``O(n²)`` — so huge-``n`` factors validate in factor-sized time.
    """
    arr = np.ascontiguousarray(factor, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D (n, k) factor array, got shape {arr.shape}")
    n, k = arr.shape
    if n < 1 or k < 1:
        raise ValidationError(
            f"{name} must have at least one row and one column, got shape {arr.shape}")
    if k > n:
        raise ValidationError(
            f"{name} has more columns than rows ({k} > {n}): a rank-{k} factor of "
            f"an {n}-element ground set is over-complete; pass at most n columns")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if require_full_rank:
        gram = arr.T @ arr
        eigenvalues = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        top = float(eigenvalues.max(initial=0.0))
        rank = int(np.sum(eigenvalues > tol * max(top, 1.0))) if top > 0 else 0
        if rank < k:
            raise ValidationError(
                f"{name} is numerically column-rank-deficient (rank {rank} < k={k}); "
                "drop the dependent columns (e.g. rebuild with "
                "LowRankKernel.from_dense or a smaller rank)")
    return arr


def check_positive_int(value: int, name: str = "value", *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer at least ``minimum``."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    v = int(value)
    if v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")
    return v
