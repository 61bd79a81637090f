"""Schur complements and DPP conditioning (Section 3.2 of the paper).

Conditioning a DPP with ensemble matrix ``L`` on the event ``Y ⊆ sample``
yields another DPP on the remaining ground set whose ensemble matrix is the
Schur complement

``L^Y = L_{~Y,~Y} - L_{~Y,Y} L_{Y,Y}^{-1} L_{Y,~Y}``        (paper, Sec. 3.2)

and similarly the marginal kernel of the conditioned process is obtained by a
Schur complement of ``I - K`` / ``K`` blocks.  These routines are used by every
sampler when a batch is accepted and the distribution must be updated.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def _split_indices(n: int, subset: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
    inside = np.asarray(sorted(int(i) for i in subset), dtype=int)
    if inside.size and (inside.min() < 0 or inside.max() >= n):
        raise ValueError(f"subset {inside.tolist()} out of range for ground set of size {n}")
    mask = np.zeros(n, dtype=bool)
    mask[inside] = True
    outside = np.flatnonzero(~mask)
    return inside, outside


def schur_complement(matrix: np.ndarray, block: Iterable[int]) -> np.ndarray:
    """Schur complement of ``matrix`` with respect to the index ``block``.

    Returns ``M_{~B,~B} - M_{~B,B} M_{B,B}^{-1} M_{B,~B}`` indexed by the
    complement of ``block`` in their original (sorted) order.
    """
    a = check_square(matrix, "matrix")
    n = a.shape[0]
    inside, outside = _split_indices(n, block)
    current_tracker().charge_determinant(n)
    if inside.size == 0:
        return a.copy()
    if outside.size == 0:
        return np.zeros((0, 0))
    a_bb = a[np.ix_(inside, inside)]
    a_ob = a[np.ix_(outside, inside)]
    a_bo = a[np.ix_(inside, outside)]
    a_oo = a[np.ix_(outside, outside)]
    solve = np.linalg.solve(a_bb, a_bo)
    return a_oo - a_ob @ solve


def condition_ensemble(L: np.ndarray, include: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Ensemble matrix of the DPP conditioned on ``include ⊆ sample``.

    Returns ``(L_cond, remaining)`` where ``remaining`` maps rows/columns of
    ``L_cond`` back to the original ground-set labels.

    Raises
    ------
    ValueError
        If ``det(L_{Y,Y}) <= 0`` within tolerance, i.e. the conditioning event
        has probability zero.
    """
    a = check_square(L, "L")
    n = a.shape[0]
    inside, outside = _split_indices(n, include)
    if inside.size == 0:
        return a.copy(), outside
    block = a[np.ix_(inside, inside)]
    sign, logabs = np.linalg.slogdet(block)
    if sign <= 0:
        raise ValueError(
            "conditioning event has zero probability: det(L_{Y,Y}) <= 0 for Y="
            f"{inside.tolist()}"
        )
    cond = schur_complement(a, inside)
    return cond, outside
