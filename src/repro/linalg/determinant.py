"""Principal minors.

Unnormalized DPP probabilities are principal minors ``det(L_{S,S})``; this
module provides :func:`principal_minor` for a single index subset, charged
as one determinant.  Many principal minors in one batched-oracle round go
through :func:`repro.linalg.batch.grouped_principal_minors`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


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
