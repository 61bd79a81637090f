"""Exact intermediate sampling for low-rank DPPs — the sublinear front end.

For ``L = B Bᵀ`` with ``B`` of rank ``k`` (``k ≪ n``), the HKPV sampler's
mixture decomposition still applies, but every mixture component is a
*projection* DPP of rank at most ``k`` — so a sample touches at most ``k``
elements, and phase 2 needs neither the ``n x n`` kernel nor an
``O(n·k²)`` pass over all rows (Barthelmé–Tremblay–Amblard 2210.17358; the
sublinear samplers of Anari–Liu–Vuong 2204.02570 build on the same
leverage-score proposals):

1. **dual phase 1** — eigendecompose the ``k x k`` Gram ``C = BᵀB`` (its
   spectrum is the nonzero spectrum of ``L``) and select the mixture
   component: Bernoulli ``λ/(1+λ)`` per eigenvalue for the DPP,
   the elementary-symmetric-polynomial recursion
   (:func:`repro.dpp.spectral.select_kdpp_eigenvectors`) for the k-DPP.
   Selected component: the projection DPP ``P[S] = det(Y_S)²`` on the rows
   of the whitened coordinates ``Y = B V_sel Λ_sel^{-1/2}`` (``n x m``,
   orthonormal columns).
2. **the chain rule by rejection** — with ``t`` rows chosen, the projection
   DPP picks row ``i`` next with probability ``‖r_i‖²/(m − t)``, where
   ``r_i`` is ``Y_i`` minus its projection on the chosen rows.  Rather than
   updating all ``n`` residuals per step, propose row ``i`` with probability
   ``ℓ_i/m`` (``ℓ_i = ‖Y_i‖²`` are the leverage scores, which sum to ``m``)
   and accept it with probability ``‖r_i‖²/ℓ_i ≤ 1``.  A proposal then
   succeeds with total probability ``Σ_i ‖r_i‖²/m = (m − t)/m``, and a
   successful one is row ``i`` with probability ``‖r_i‖²/(m − t)`` —
   exactly the chain rule, so the output is exactly the projection DPP,
   with no approximation parameter anywhere.  A chosen row has ``r_i = 0``
   and is never taken twice.  Step ``t`` takes ``m/(m − t)`` proposals in
   expectation, ``m·H_m`` in all (``H_m`` the ``m``-th harmonic number).
   Residuals come from an ``m x m`` orthonormal basis of the chosen rows
   that grows by one row per acceptance, so a proposal costs ``O(m·t)``.
3. **the proposal, in two levels** — the leverage law is searched through
   a table that the whitening fixes: :func:`proposal_tables` holds, for
   every whitened column, the cumulative sums of ``U∘U`` over blocks of
   ``b = ⌈√(n/k)⌉`` consecutive rows (``k x ⌈n/b⌉``, cached next to the
   whitening).  A draw sums the table rows of its ``m`` selected columns,
   which gives the cumulative leverage at every block end.  A proposal
   finds its block in that sum, computes the leverages of the block's
   ``b`` rows over the selected columns, and finds its row among them:
   the same inverse CDF of the same leverage law as one flat search over
   all ``n`` rows, so the draws are the flat search's.

Per-sample cost is one ``O((n/b)·m)`` block sum, then ``O(b·m + m²)`` work
per proposal: ``O(√(n·k)·m·log m + m³·log m)`` in all, after a one-time
``O(n·k² + k³)`` whitening and ``O(n·k)`` table that the serving layer
caches; memory never exceeds ``O(n·k)``.  PRAM accounting: the block sum is
one round (``⌈n/b⌉`` machines, ``⌈n/b⌉·m`` work) and each proposal charges
``b·m + m²`` work; the chain's ``m`` dependent steps are not counted as
rounds.
All randomness is consumed from one generator in a fixed order — phase 1,
then per proposal one uniform for the row and one for the acceptance — so
fixed-seed samples are byte-identical on every serving path.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Tuple

import numpy as np

from repro.dpp.spectral import select_kdpp_eigenvectors
from repro.linalg.batch import symmetrized_eigh
from repro.pram.tracker import current_tracker
from repro.utils.rng import SeedLike, as_generator
from repro.utils.subsets import subset_key

__all__ = [
    "lowrank_intermediate_basis",
    "proposal_tables",
    "sample_dpp_intermediate",
    "sample_kdpp_intermediate",
]

#: relative threshold below which a dual eigenvalue counts as zero
_RANK_TOL = 1e-10

#: precomputed ``(dual eigenvalues, whitened coordinates)`` pair
WhitenedBasis = Tuple[np.ndarray, np.ndarray]


def lowrank_intermediate_basis(factor: np.ndarray, *,
                               dual: Optional[Tuple[np.ndarray, np.ndarray]] = None
                               ) -> WhitenedBasis:
    """One-time whitening of a factor: ``(λ, U)`` with ``U = B V Λ^{-1/2}``.

    ``λ`` are the numerically nonzero eigenvalues of the dual Gram ``BᵀB``
    (ascending) — equal to the nonzero spectrum of ``L = B Bᵀ`` — and the
    columns of ``U`` (``n x r``) are the corresponding orthonormal
    eigenvectors of ``L``, computed without ever forming ``L``.  ``dual``
    optionally supplies a precomputed ``(eigenvalues, vectors)`` pair of the
    Gram (e.g. from a warm factorization cache); the whitening then costs one
    ``n x k`` matmul and draws identical samples downstream.

    This is the cacheable preprocessing of the intermediate sampler:
    ``O(n·k² + k³)`` once, ``O(n·k)`` memory.
    """
    B = np.asarray(factor, dtype=float)
    if B.ndim != 2:
        raise ValueError(f"factor must be 2-D, got shape {B.shape}")
    n, k = B.shape
    tracker = current_tracker()
    if dual is None:
        tracker.charge_determinant(k)
        eigenvalues, vectors = symmetrized_eigh(B.T @ B)
    else:
        eigenvalues = np.clip(np.asarray(dual[0], dtype=float), 0.0, None)
        vectors = np.asarray(dual[1], dtype=float)
        if eigenvalues.shape != (k,) or vectors.shape != (k, k):
            raise ValueError(
                f"precomputed dual has shapes {eigenvalues.shape}/{vectors.shape}, "
                f"expected ({k},)/({k}, {k})")
    top = float(eigenvalues.max(initial=0.0))
    keep = eigenvalues > _RANK_TOL * max(top, 1.0) if top > 0 \
        else np.zeros(k, dtype=bool)
    kept = eigenvalues[keep]
    tracker.charge(work=float(n) * k * max(int(keep.sum()), 1))
    coords = (B @ vectors[:, keep]) / np.sqrt(kept)[None, :] if kept.size \
        else np.zeros((n, 0))
    return kept, coords


def _block_rows(n: int, k: int) -> int:
    """Rows per block of the proposal tables of ``n x k`` coordinates.

    ``b = ⌈√(n/k)⌉``: a draw with ``m ≤ k`` selected columns sums ``⌈n/b⌉``
    entries per column once, and each of its ``m·H_m`` proposals scans one
    block, so both costs stay near ``√(n·k)·m``.
    """
    return max(1, math.ceil(math.sqrt(n / max(k, 1))))


def proposal_tables(coords: np.ndarray) -> np.ndarray:
    """Cumulative block leverages of every whitened column.

    Row ``j`` of the ``k x ⌈n/b⌉`` result holds ``Σ_{i < (c+1)·b} U_ij²`` at
    column ``c``, for the whitened coordinates ``U`` (``n x k``) and
    :func:`_block_rows`'s ``b``; the last block may be short.  Summing the
    rows of a draw's selected columns gives that draw's cumulative leverage
    at every block end.  One ``O(n·k)`` pass per whitening: the cold
    samplers run it per draw, the serving cache once per kernel epoch.
    """
    coords = np.asarray(coords, dtype=float)
    n, k = coords.shape
    b = _block_rows(n, k)
    full = n // b
    sums = np.empty((-(-n // b), k))
    head = coords[:full * b].reshape(full, b, k)
    np.einsum("cij,cij->cj", head, head, out=sums[:full])
    if full < sums.shape[0]:
        tail = coords[full * b:]
        sums[full] = np.einsum("ij,ij->j", tail, tail)
    current_tracker().charge(work=float(n) * k)
    return np.ascontiguousarray(np.cumsum(sums, axis=0).T)


def _propose(coords: np.ndarray, selected: np.ndarray, blocks: List[float],
             b: int, position: float) -> Tuple[int, np.ndarray, float]:
    """The row at ``position ∈ [0, 1)`` of the leverage CDF of ``coords[:, selected]``.

    ``blocks`` is that CDF at every block end (the selected rows of
    :func:`proposal_tables`, summed).  The block whose cumulative leverage
    first exceeds the target holds the row; the leftover target, rescaled
    to the block's own leverage sum, finds it among the block's ``b`` rows.
    Returns the row's index, its coordinates over ``selected`` and its
    leverage.  Python floats and ``bisect`` search as ``np.searchsorted``
    would, at a fraction of its per-call cost.
    """
    total = blocks[-1]
    target = position * total
    block = bisect.bisect_right(blocks, target)
    if block == len(blocks):                         # rounded up to the total:
        block = bisect.bisect_left(blocks, total)    # the last block with mass
    start = block * b
    rows = coords[start:start + b, selected]
    leverages = np.einsum("ij,ij->i", rows, rows)
    inner = np.add.accumulate(leverages).tolist()
    below = blocks[block - 1] if block else 0.0
    # the block's leverage sum is positive: the search skips empty blocks
    scale = inner[-1] / (blocks[block] - below)
    offset = bisect.bisect_right(inner, (target - below) * scale)
    if offset == len(inner):                         # rounded up again:
        offset = bisect.bisect_left(inner, inner[-1])  # the last row with mass
    return start + offset, rows[offset], leverages[offset]


def _projection_chain(coords: np.ndarray, tables: Optional[np.ndarray],
                      mask: np.ndarray, rng: np.random.Generator) -> Tuple[int, ...]:
    """Exact sample from the projection DPP on the rows of ``coords[:, mask]``.

    The chain rule by rejection of the module docstring: leverage-score
    proposals, found in two levels through ``tables`` (``None``: built here
    by :func:`proposal_tables`), accepted with probability (residual
    norm²)/(leverage).
    """
    selected = np.flatnonzero(mask)
    m = selected.size
    if m == 0:
        return ()
    n, k = coords.shape
    b = _block_rows(n, k)
    count = -(-n // b)
    if tables is None:
        tables = proposal_tables(coords)
    elif tables.shape != (k, count):
        raise ValueError(f"proposal tables have shape {tables.shape}, expected "
                         f"({k}, {count}) for {n} x {k} coordinates")
    tracker = current_tracker()
    with tracker.round("intermediate-leverages"):
        tracker.charge(machines=float(count), work=float(count) * m)
        blocks = tables[selected].sum(axis=0).tolist()
    basis = np.empty((m, m))                         # orthonormal rows: chosen span
    chosen = []
    proposals = 0
    while len(chosen) < m:
        proposals += 1
        position, accept = rng.random(2).tolist()
        i, row, leverage = _propose(coords, selected, blocks, b, position)
        if i in chosen:
            continue
        span = basis[:len(chosen)]
        residual = row - (span @ row) @ span
        norm2 = float(residual @ residual)
        if accept * leverage < norm2:
            basis[len(chosen)] = residual / math.sqrt(norm2)
            chosen.append(i)
    tracker.charge(work=float(proposals) * (b * m + m * m))
    return subset_key(chosen)


def sample_dpp_intermediate(kernel, seed: SeedLike = None, *,
                            whitened: Optional[WhitenedBasis] = None,
                            tables: Optional[np.ndarray] = None) -> Tuple[int, ...]:
    """Exact sample from ``DPP(B Bᵀ)`` without materializing the ``n x n`` kernel.

    ``kernel`` is a :class:`~repro.distributions.lowrank.LowRankKernel` or a
    raw ``n x k`` factor array.  ``whitened`` optionally supplies the cached
    :func:`lowrank_intermediate_basis` pair, and ``tables`` the cached
    :func:`proposal_tables` of its coordinates.
    """
    factor = getattr(kernel, "factor", kernel)
    eigenvalues, coords = whitened if whitened is not None \
        else lowrank_intermediate_basis(factor)
    rng = as_generator(seed)
    mask = rng.random(eigenvalues.size) < eigenvalues / (1.0 + eigenvalues)
    return _projection_chain(coords, tables, mask, rng)


def sample_kdpp_intermediate(kernel, k: int, seed: SeedLike = None, *,
                             whitened: Optional[WhitenedBasis] = None,
                             tables: Optional[np.ndarray] = None) -> Tuple[int, ...]:
    """Exact sample from the k-DPP of ``B Bᵀ`` without materializing it.

    Phase 1 runs the elementary-symmetric-polynomial eigenvector selection
    over the dual spectrum (the zero eigenvalues of ``L`` contribute nothing
    to any ESP, so the ``k``-sized dual recursion is exact); the rest matches
    :func:`sample_dpp_intermediate`, ``tables`` included.
    """
    factor = getattr(kernel, "factor", kernel)
    eigenvalues, coords = whitened if whitened is not None \
        else lowrank_intermediate_basis(factor)
    if k == 0:
        return ()
    if k > eigenvalues.size:
        raise ValueError(
            f"k-DPP with k={k} has zero mass: factor rank is {eigenvalues.size} < k")
    rng = as_generator(seed)
    mask = select_kdpp_eigenvectors(eigenvalues, k, rng)
    return _projection_chain(coords, tables, mask, rng)
