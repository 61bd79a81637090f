"""Batched linear algebra for one adaptive oracle round.

The engine (:mod:`repro.engine`) turns each adaptive round of a sampler into
an :class:`~repro.engine.batch.OracleBatch` — many independent determinant /
spectrum queries against the same matrix.  This module provides the
NumPy-stacked primitives the vectorized execution backend fans those queries
out with:

* :func:`stacked_principal_submatrices` / :func:`grouped_principal_minors` /
  :func:`grouped_log_principal_minors` — principal minors of many (possibly
  mixed-size) index subsets via stacked ``det`` / ``slogdet`` calls;
* :func:`conditioned_factor` / :func:`lowrank_conditioned_gram` — conditioning
  in factor space: for a PSD ``L = B Bᵀ`` the Schur complement is
  ``L^T = F Fᵀ`` with ``F = B_O Q`` and the projector
  ``Q = I - B_Tᵀ L_{T,T}^{-1} B_T``, so the nonzero spectrum of ``L^T`` is
  the spectrum of the ``r x r`` Gram ``C = FᵀF = Q (BᵀB) Q``.  A conditioned
  symmetric DPP or k-DPP keeps only ``(F, C)``, never the ``(n-t) x (n-t)``
  Schur complement, and decomposes only ``C``: one ``O(r³)``
  eigendecomposition per conditioning.  Forming ``C`` costs ``O(t·r²)``,
  once per conditioning, from the ``t x t`` solve that gives ``F``; a
  1-DPP child keeps ``F`` alone and forms none, and counting queries form
  no Gram;
* :func:`symmetrized_eigh` / :func:`factor_from_eigh` / :func:`psd_factor` —
  the one decomposition of a dense symmetric kernel, and the factor read
  off it;
* :func:`hkpv_projection_step` — one HKPV phase-2 round as a leverage
  downdate: the eigenbasis stays fixed, and the round extends the chosen
  span by one Gram–Schmidt direction and subtracts its squared projections
  from the leverage scores, one ``n x m`` matvec per request.

All routines charge the current PRAM tracker exactly like their scalar
counterparts in :mod:`repro.linalg.determinant` and :mod:`repro.linalg.schur`:
``count`` independent queries inside one ``Õ(1)``-depth block.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square

#: an ``(eigenvalues, eigenvectors)`` pair in :func:`numpy.linalg.eigh` order
EighPair = Tuple[np.ndarray, np.ndarray]
#: an HKPV chain's ``(spans, leverages)`` after a round (:func:`hkpv_projection_step`)
ProjectionState = Tuple[np.ndarray, np.ndarray]

__all__ = [
    "stacked_principal_submatrices",
    "grouped_principal_minors",
    "grouped_log_principal_minors",
    "conditioned_factor",
    "lowrank_conditioned_gram",
    "symmetrized_eigh",
    "factor_from_eigh",
    "psd_factor",
    "group_by_size",
    "hkpv_projection_step",
]


def group_by_size(subsets: Sequence[Sequence[int]]) -> Dict[int, List[int]]:
    """Map ``size -> positions`` grouping mixed-size subsets for stacked calls."""
    groups: Dict[int, List[int]] = {}
    for pos, subset in enumerate(subsets):
        groups.setdefault(len(subset), []).append(pos)
    return groups


def _index_array(subsets: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Sorted ``(batch, m)`` index array with range validation."""
    idx = np.asarray([sorted(int(i) for i in s) for s in subsets], dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"subset index out of range for matrix of size {n}")
    return idx


def stacked_principal_submatrices(matrix: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """``(batch, m, m)`` stack of principal submatrices (equal-size subsets)."""
    a = check_square(matrix, "matrix")
    idx = _index_array(subsets, a.shape[0])
    return a[idx[:, :, None], idx[:, None, :]]


def grouped_principal_minors(matrix: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """``det(M_{S,S})`` for many subsets of *mixed* sizes.

    Subsets are grouped by cardinality and each group is evaluated with one
    stacked ``np.linalg.det`` call; results are returned in input order.
    Charged as ``len(subsets)`` parallel oracle queries.
    """
    a = check_square(matrix, "matrix")
    values = np.empty(len(subsets), dtype=float)
    tracker = current_tracker()
    for size, positions in group_by_size(subsets).items():
        tracker.charge_determinant(size, count=len(positions))
        if size == 0:
            values[positions] = 1.0
            continue
        stacked = stacked_principal_submatrices(a, [subsets[p] for p in positions])
        values[positions] = np.linalg.det(stacked)
    return values


def grouped_log_principal_minors(matrix: np.ndarray, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """``log det(M_{S,S})`` for mixed-size subsets; ``-inf`` for nonpositive minors.

    The vectorized form of one ``slogdet`` per principal submatrix (empty
    subsets contribute ``0.0``).
    """
    a = check_square(matrix, "matrix")
    values = np.full(len(subsets), -np.inf)
    tracker = current_tracker()
    for size, positions in group_by_size(subsets).items():
        tracker.charge_determinant(size, count=len(positions))
        if size == 0:
            values[positions] = 0.0
            continue
        stacked = stacked_principal_submatrices(a, [subsets[p] for p in positions])
        signs, logdets = np.linalg.slogdet(stacked)
        values[positions] = np.where(signs > 0, logdets, -np.inf)
    return values


def symmetrized_eigh(ensemble: np.ndarray) -> EighPair:
    """One symmetrize-then-``eigh`` with eigenvalues clipped at zero.

    The only decomposition of a dense symmetric kernel: the HKPV samplers
    read the pair, the k-DPP's spectrum and the DPP's size distribution read
    its eigenvalues, and :func:`factor_from_eigh` turns it into the factor.
    A :class:`repro.service.FactorizationCache` memoizes exactly this pair,
    so cached and uncached draws consume identical spectra.
    """
    a = np.asarray(ensemble, dtype=float)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (a + a.T))
    return np.clip(eigenvalues, 0.0, None), eigenvectors


def factor_from_eigh(eigenvalues: np.ndarray, eigenvectors: np.ndarray, *,
                     tol: float = 1e-12) -> np.ndarray:
    """Rank-revealing ``B`` with ``L ≈ B Bᵀ`` from an eigenpair of ``L``.

    Eigenvalues are clipped at zero and those below ``tol * λmax`` dropped,
    so ``B`` has ``rank(L)`` columns for numerically low-rank ensembles.
    The pair may be :func:`symmetrized_eigh`'s or a secular-patched one
    (:func:`repro.linalg.updates.rank_one_eigh_update`); nothing is charged
    here, the caller owns the decomposition.
    """
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    vec = np.asarray(eigenvectors, dtype=float)
    n = lam.size
    if n == 0:
        return np.zeros((0, 0))
    top = float(lam.max(initial=0.0))
    keep = lam > tol * max(top, 1.0) if top > 0 else np.zeros(n, dtype=bool)
    if not np.any(keep):
        return np.zeros((n, 0))
    return vec[:, keep] * np.sqrt(lam[keep])


def psd_factor(L: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
    """Rank-revealing factor ``B`` with ``L ≈ B Bᵀ`` from one eigendecomposition."""
    a = check_square(L, "L")
    current_tracker().charge_determinant(a.shape[0])
    return factor_from_eigh(*symmetrized_eigh(a), tol=tol)


def conditioned_factor(factor: np.ndarray, items: Sequence[int],
                       gram: Optional[np.ndarray] = None):
    """Factor of the conditioned ensemble ``L^T`` for ``L = B Bᵀ``, and its Gram.

    ``L^T = B_O Q B_Oᵀ`` with the projector
    ``Q = I - B_Tᵀ (B_T B_Tᵀ)^{-1} B_T``; since ``Q`` is a symmetric
    idempotent, ``F = B_O Q`` is itself a factor of ``L^T``.  It keeps the
    ``r`` columns of ``B`` (its rank drops by ``|T|``) and costs
    ``O((n-t)·r² + t³)``, with no ``n x n`` intermediate.

    Returns ``(F, remaining)``, where ``remaining`` lists the surviving rows
    of ``B`` in ascending order.  Given the parent's Gram ``gram = BᵀB`` it
    returns ``(F, remaining, C)``: ``C = FᵀF`` from the same ``t x t``
    solve, in ``O(t·r²)`` and charged as an ``r x r`` determinant, bitwise
    :func:`lowrank_conditioned_gram` of ``[items]`` for sorted ``items``.
    Raises ``ValueError`` when ``det(L_{T,T}) <= 0``: the conditioning event
    has zero probability.
    """
    B = np.asarray(factor, dtype=float)
    n, r = B.shape
    idx = [int(i) for i in items]
    B_T = B[idx]
    L_TT = B_T @ B_T.T
    tracker = current_tracker()
    tracker.charge_determinant(len(idx))
    sign, _ = np.linalg.slogdet(L_TT)
    if sign <= 0:
        raise ValueError(f"conditioning event {tuple(idx)} has zero probability")
    X = np.linalg.solve(L_TT, B_T)
    Q = np.eye(r) - B_T.T @ X
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    F, remaining = B[mask] @ Q, np.flatnonzero(mask)
    if gram is None:
        return F, remaining
    tracker.charge_determinant(r)
    return F, remaining, _projected_gram(gram, B_T[None], X[None])[0]


def lowrank_conditioned_gram(factor: np.ndarray, gram: np.ndarray,
                             subsets: Sequence[Sequence[int]]
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Batched rank-``r`` reduction of conditioned PSD spectra.

    For ``L = B Bᵀ`` (``B = factor``, ``gram = G = BᵀB``) and equal-size
    blocks ``T``, the Schur complement is ``L^T = F Fᵀ`` with
    ``F = B_O Q`` (:func:`conditioned_factor`), so its nonzero spectrum is
    that of the ``r x r`` Gram ``C_T = FᵀF = Q (G - B_TᵀB_T) Q``.  Because
    ``Q B_Tᵀ = 0`` this equals ``Q G Q``, which with ``X = L_{T,T}^{-1} B_T``
    and ``Y = X G`` expands to ``G - B_TᵀY - YᵀB_T + B_Tᵀ (Y Xᵀ) B_T``:
    every product is ``O(t·r²)``, so ``Q`` is never formed.

    Returns ``(det_T, C)`` where ``det_T[b] = det(L_{T_b,T_b})`` and ``C[b]``
    is the symmetrized ``r x r`` reduction (rows with ``det_T <= 0`` hold
    garbage and must be masked by the caller — the conditioning event has zero
    probability there).
    """
    B = np.asarray(factor, dtype=float)
    n, r = B.shape
    idx = _index_array(subsets, n)
    batch, t = idx.shape
    current_tracker().charge_determinant(r, count=batch)
    if t == 0:
        C = np.broadcast_to(gram, (batch, r, r)).copy()
        return np.ones(batch), C
    B_T = B[idx]                                    # (batch, t, r)
    L_TT = B_T @ B_T.transpose(0, 2, 1)             # (batch, t, t)
    det_T = np.linalg.det(L_TT)
    ok = det_T > 0
    safe_L_TT = np.where(ok[:, None, None], L_TT, np.eye(t)[None])
    X = np.linalg.solve(safe_L_TT, B_T)             # (batch, t, r)
    return det_T, _projected_gram(gram, B_T, X)


def _projected_gram(gram: np.ndarray, B_T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``Q G Q`` for stacked blocks ``B_T`` and solves ``X = L_{T,T}^{-1} B_T``, symmetrized."""
    B_Tt = B_T.transpose(0, 2, 1)                   # (batch, r, t)
    Y = X @ gram                                    # (batch, t, r)
    BY = B_Tt @ Y                                   # (batch, r, r) = B_Tᵀ X G
    C = gram[None] - BY - BY.transpose(0, 2, 1) + B_Tt @ ((Y @ X.transpose(0, 2, 1)) @ B_T)
    return 0.5 * (C + C.transpose(0, 2, 1))


def hkpv_projection_step(bases: np.ndarray,
                         eliminate: Optional[Sequence[int]] = None,
                         state: Optional[ProjectionState] = None
                         ) -> Tuple[np.ndarray, ProjectionState]:
    """One HKPV phase-2 round for ``G`` stacked requests: a leverage downdate.

    ``bases`` is a ``(G, n, m)`` stack of orthonormal bases ``U`` (``G``
    concurrent requests in lockstep — same kernel, same step); each stays
    fixed for the whole chain.  A round's state is ``(spans, leverages)``:
    ``spans[g]`` is a ``(t, m)`` array ``E`` of orthonormal rows spanning the
    ``t`` rows of ``U`` chosen so far, and ``leverages[g]`` holds
    ``ℓ_j = ‖U_j (I - EᵀE)‖²``, the selection weights of the next draw.

    The first round (``eliminate=None``) has ``ℓ_j = ‖U_j‖²`` and an empty
    ``E``.  A round given one row ``i`` per basis and the previous round's
    ``state`` takes ``U_i``'s residual against ``E`` by Gram–Schmidt with one
    re-orthogonalization (``r = U_i - (E U_i)ᵀE``, applied twice), appends
    ``e = r / ‖r‖`` to ``E`` and downdates ``ℓ ← ℓ - (U e)²``, then sets
    ``ℓ_i = 0`` exactly: subtraction leaves a chosen row at rounding level,
    from where it could be drawn again.  That is one ``n x m`` matvec and no
    ``n x m`` temporary, charged as ``n·(m - t)²`` work per request, the
    width of the space the round projects.

    Each request runs 2-D operations on its own slices, so its numbers are
    **identical for any stacking factor** ``G`` — the single-request sampler
    calls this with ``G = 1`` and the
    :class:`~repro.service.scheduler.RoundScheduler` fuses concurrent
    requests by stacking, without perturbing any request's samples.

    Returns ``(leverages, (spans, leverages))`` with ``leverages`` of shape
    ``(G, n)`` and ``spans`` of shape ``(G, t + 1, m)``.  Raises
    ``RuntimeError`` when a selected row has a zero residual.
    """
    stacked = np.asarray(bases, dtype=float)
    if stacked.ndim != 3:
        raise ValueError(f"bases must be a (G, n, m) stack, got shape {stacked.shape}")
    G, n, m = stacked.shape
    if eliminate is None:
        leverages = np.sum(stacked * stacked, axis=2)
        return leverages, (np.empty((G, 0, m)), leverages)

    items = [int(i) for i in eliminate]
    if len(items) != G:
        raise ValueError(f"eliminate must give one row per basis, got {len(items)} for G={G}")
    if state is None:
        raise ValueError("an eliminating round needs the previous round's state")
    spans, previous = state
    t = spans.shape[1]
    current_tracker().charge(work=float(G) * n * (m - t) ** 2)
    new_spans = np.empty((G, t + 1, m))
    new_spans[:, :t] = spans
    leverages = np.empty((G, n))
    for g, i in enumerate(items):
        U, E = stacked[g], spans[g]
        residual = U[i] - (E @ U[i]) @ E
        residual -= (E @ residual) @ E
        norm = math.sqrt(float(residual @ residual))
        if not norm > 0:
            raise RuntimeError("selected an element with zero residual norm")
        direction = residual / norm
        new_spans[g, t] = direction
        projection = U @ direction
        projection *= projection
        np.subtract(previous[g], projection, out=leverages[g])
        leverages[g, i] = 0.0
    return leverages, (new_spans, leverages)
