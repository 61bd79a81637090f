"""Elementary symmetric polynomials (ESPs).

The k-DPP partition function is ``e_k(λ_1, ..., λ_n)``, the k-th elementary
symmetric polynomial of the ensemble matrix's eigenvalues [KT12b].  ESPs also
appear in the size distribution of an unconstrained DPP, and the saddle-point
radius below sets the torus of the Partition-DPP counting oracle [Cel+16].

We compute them with the standard stable dynamic program (equivalent to
expanding ``∏ (1 + λ_i t)``), value by value or order by order as
cumulative sums (:func:`esp_prefix_table`).

A symmetric k-DPP's counting queries need no spectrum of their own:
:func:`kdpp_counts_from_factor` reads ``Σ_{S ⊇ T, |S| = k} det(L_S)`` off
the generating polynomial of the sets containing ``T``, evaluated on a
circle from the factor spectrum of ``L`` alone.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.pram.tracker import current_tracker


def elementary_symmetric_polynomials(values: np.ndarray, max_order: Optional[int] = None) -> np.ndarray:
    """All ESPs ``e_0, ..., e_m`` of the last axis of ``values``.

    ``values`` has shape ``(n,)`` or ``(..., n)``, real or complex (the
    spectrum of a nonsymmetric matrix); ``m = max_order`` or ``n``, and
    orders above ``n`` are zero.  The result puts the order axis first:
    ``table[j]`` holds ``e_j`` of every row, so a ``(..., n)`` input gives an
    ``(m + 1, ...)`` table and a 1-D input an ``(m + 1,)`` vector.

    Uses the O(n·m) dynamic program ``e_j <- e_j + x * e_{j-1}``, which is the
    coefficient recurrence of ``∏ (1 + x_i t)`` and is numerically stable for
    nonnegative inputs.  Each row sees the same update order whatever it is
    stacked with, so a stacked call equals per-row calls bitwise.  A 1-D
    input with ``2·m < n`` reads :func:`esp_prefix_table`, faster there.
    """
    vals = np.asarray(values)
    vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
    n = vals.shape[-1]
    m = n if max_order is None else int(max_order)
    if m < 0:
        raise ValueError("max_order must be nonnegative")
    if vals.ndim == 1 and 2 * m < n:
        return esp_prefix_table(vals, m)[:, -1].copy()
    esp = np.zeros((m + 1,) + vals.shape[:-1], dtype=vals.dtype)
    esp[0] = 1.0
    upper = min(m, n)
    for x in np.moveaxis(vals, -1, 0):
        esp[1:upper + 1] = esp[1:upper + 1] + x * esp[0:upper]
    return esp


def esp_prefix_table(values: np.ndarray, max_order: int) -> np.ndarray:
    """``E[j, i] = e_j(x_1..x_i)`` for a 1-D ``values``, shape ``(max_order + 1, n + 1)``.

    Row ``j`` is one cumulative sum of ``x_i E[j - 1, i - 1]``: the additions
    of the recurrence ``E[j, i] = E[j, i - 1] + x_i E[j - 1, i - 1]`` in its
    order, so the table is that recurrence's bitwise.  The exact zeros
    ``i < j`` are skipped, which is exact for finite inputs.
    """
    vals = np.asarray(values)
    vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
    n = vals.size
    table = np.zeros((max_order + 1, n + 1), dtype=vals.dtype)
    table[0] = 1.0
    for j in range(1, min(max_order, n) + 1):
        np.cumsum(vals[j - 1:] * table[j - 1, j - 1:-1], out=table[j, j:])
    return table


#: a counting coefficient below ``-_NEGATIVE_TOL`` times the polynomial's mean
#: modulus on the circle is a broken oracle, not rounding
_NEGATIVE_TOL = 1e-12

#: a set whose Gram ``W_T W_Tᵀ`` has ``det <= _SINGULAR_TOL · ∏ diag`` (a
#: fraction of its Hadamard bound) is singular up to rounding and counts 0
_SINGULAR_TOL = 1e-13


def _saddle_radius(spectrum: np.ndarray, k: float) -> float:
    """The ``ρ`` with ``Σ_j ρ s_j / (1 + ρ s_j) = k`` over the positive ``s_j``.

    There ``∏_j (1 + ρ s_j) / ρ^k`` is smallest, so the circle of radius
    ``ρ`` keeps the generating polynomial within a small factor of its
    ``z^k`` term.  The target is clamped to ``rank - ½`` so that ``k = rank``
    (an infinite saddle point) still gets a finite radius.  Solved for
    ``u = log ρ`` by Newton's method on a bracket, since the left side is a
    sum of logistic functions of ``u``.
    """
    log_s = np.log(spectrum[spectrum > 0])
    rank = log_s.size
    target = min(float(k), rank - 0.5)
    # every term is below e^{u + log s_max}, and each misses 1 by at most e^{-u - log s_min}
    lo = float(np.log(target / rank) - log_s.max())
    hi = float(np.log(rank / (rank - target)) - log_s.min())
    u = 0.5 * (lo + hi)
    for _ in range(100):
        p = 0.5 * (1.0 + np.tanh(0.5 * (u + log_s)))
        excess = float(p.sum()) - target
        if excess > 0:
            hi = u
        else:
            lo = u
        step = excess / max(float(np.sum(p * (1.0 - p))), 1e-300)
        # converged on the Newton step itself: at the root, a step of
        # rounding size lands on the bracket end ``u`` and would otherwise
        # fall back to bisection, away from the root
        if abs(step) <= 1e-12 * max(1.0, abs(u)):
            break
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
    return float(np.exp(u))


class KdppCircle(NamedTuple):
    """The kernel-only half of the circle counts (:func:`kdpp_circle`).

    Everything :func:`kdpp_counts_on_circle` reads that depends on the
    spectrum and ``k`` alone, at the saddle radius ``ρ`` of
    :func:`_saddle_radius`, so a kernel can keep it across queries.
    """

    #: ``∏_j (1 + z_m s_j) / ∏_j (1 + ρ s_j)`` at each node ``z_m``
    prefactor: np.ndarray
    #: ``∏_j (1 + ρ s_j) / ρ^k``, which turns a coefficient into a count
    scale: float
    #: ``(r, 2·nodes + 1)``: real and imaginary parts of ``z_m / (1 + z_m s_j)``, then ones
    table: np.ndarray
    #: each node's weight in the DFT: itself and its conjugate
    fold: np.ndarray
    #: ``(2·nodes, 1)``: the ``[z^k]`` DFT row, real parts then negated imaginary parts
    dft: np.ndarray


def kdpp_circle(spectrum: np.ndarray, k: int) -> Optional[KdppCircle]:
    """The circle of :func:`kdpp_counts_from_factor` for ``spectrum`` and ``k``.

    ``None`` when no ``s_j`` is positive: then every count is 0.  Computes
    the saddle radius, the ``⌊(r + 1)/2⌋ + 1`` nodes of the upper
    half-plane, their prefactors and weights, and the DFT row; it charges
    nothing, since it reads no set.
    """
    s = np.asarray(spectrum, dtype=float)
    r = s.size
    if not np.any(s > 0):
        return None
    rho = _saddle_radius(s, k)
    m = np.arange((r + 1) // 2 + 1)
    angles = 2.0 * np.pi * m / (r + 1)
    z = rho * (np.cos(angles) + 1j * np.sin(angles))
    # ∏_j (1 + z s_j), divided by its value at z = ρ: modulus at most 1
    prefactor = np.prod((1.0 + np.outer(z, s)) / (1.0 + rho * s), axis=1)
    scale = float(np.exp(np.sum(np.log1p(rho * s)) - k * np.log(rho)))
    weights = z / (1.0 + np.outer(s, z))                         # (r, nodes)
    table = np.concatenate([weights.real, weights.imag, np.ones((r, 1))], axis=1)
    # node m stands for itself and its conjugate N - m
    fold = np.where((m == 0) | (2 * m == r + 1), 1.0, 2.0) / (r + 1)
    dft = fold * np.exp(-1j * k * angles)
    return KdppCircle(prefactor, scale, table, fold,
                      np.concatenate([dft.real, -dft.imag])[:, None])


def kdpp_counts_from_factor(spectrum: np.ndarray, rotated: np.ndarray,
                            subsets: Sequence[Sequence[int]], k: int) -> np.ndarray:
    """``Σ_{S ⊇ T, |S| = k} det(L_S)`` for equal-size sets ``T``, with no eigensolve.

    ``spectrum`` and ``rotated`` are the factor spectrum of
    :func:`repro.dpp.elementary.kdpp_marginals_from_factor`: ``L = W Wᵀ``
    with ``W = rotated`` (``n x r``), whose columns are orthogonal with
    squared norms ``s = spectrum``.  Then ``K(z) = z L (I + z L)^{-1}`` is
    ``W diag(z / (1 + z s_j)) Wᵀ``, and the generating polynomial of the sets
    containing ``T`` is

    ``P_T(z) = Σ_{S ⊇ T} z^{|S|} det(L_S) = ∏_j (1 + z s_j) · det(K(z)_T)``.

    It has degree at most ``r``, so its values at the ``N = r + 1`` points
    ``z_m = ρ e^{2πim/N}`` determine it, and ``[z^k] P_T`` is one DFT
    coefficient.  Its coefficients are real, so only the ``⌊N/2⌋ + 1``
    nodes of the upper half-plane are evaluated; the radius is the saddle
    point of :func:`_saddle_radius`.  A set is one row of a stacked matmul
    and ``⌊N/2⌋ + 1`` determinants of order ``|T|``, and every stacked call
    has a per-set shape that does not depend on the batch: a set's count
    does not depend on what it is batched with.

    Sets whose ``det(L_T)`` is at most ``1e-13`` of its Hadamard bound
    ``∏_i L_ii`` (``_SINGULAR_TOL``) count exactly 0: an ``eigh``-derived
    factor leaves rounding, not 0, in the determinant of a singular ``L_T``
    such as two identical rows.  A coefficient below
    ``-1e-12`` times the mean of ``|P_T(z_m)| / ρ^k`` raises
    :class:`~repro.distributions.base.CountingOracleError`; smaller
    negatives are rounding and clip to 0.  Charged as one oracle call per
    set.

    It is :func:`kdpp_circle`, the half that depends on the kernel and
    ``k`` alone, followed by :func:`kdpp_counts_on_circle`, the per-set
    half, which charges: a caller that keeps the circle (a
    :class:`~repro.dpp.symmetric.SymmetricKDPP` does) gets the same counts
    and charges from the second half alone.
    """
    return kdpp_counts_on_circle(kdpp_circle(spectrum, k), rotated, subsets)


@functools.lru_cache(maxsize=64)
def _block_entries(t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``triu_indices(t)`` and the ``(t, t)`` map from a block entry to its slot there.

    Kept per ``t`` (read-only), since every counting round of a size asks again.
    """
    iu, ju = np.triu_indices(t)
    entry_of = np.empty((t, t), dtype=int)
    entry_of[iu, ju] = entry_of[ju, iu] = np.arange(iu.size)
    for array in (iu, ju, entry_of):
        array.flags.writeable = False
    return iu, ju, entry_of


def kdpp_counts_on_circle(circle: Optional[KdppCircle], rotated: np.ndarray,
                          subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """The per-set half of :func:`kdpp_counts_from_factor`, on a kept circle.

    ``circle`` is :func:`kdpp_circle` of the spectrum that ``rotated``
    belongs to, and of the same ``k``.  Charges one oracle call per set.
    """
    W = np.asarray(rotated, dtype=float)
    n, r = W.shape
    idx = np.sort(np.asarray(subsets, dtype=int), axis=1)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"subset index out of range for a ground set of size {n}")
    batch, t = idx.shape
    nodes = (r + 1) // 2 + 1
    current_tracker().charge(work=float(batch) * nodes * (t * t * r + t ** 3),
                             machines=float(batch), oracle_calls=batch)
    if circle is None:
        return np.zeros(batch)
    # one row per entry of the symmetric t x t blocks: against the table's
    # columns it gives K(z_m)_T (real, imaginary parts) and, last, W_T W_Tᵀ
    iu, ju, entry_of = _block_entries(t)
    rows = W[idx]                                                # (batch, t, r)
    products = rows[:, iu, :] * rows[:, ju, :]                   # (batch, t(t+1)/2, r)
    blocks = (products @ circle.table)[:, entry_of]              # (batch, t, t, 2·nodes + 1)
    gram = blocks[..., -1]
    K_T = np.empty((batch, nodes, t, t), dtype=complex)
    K_T.real = blocks[..., :nodes].transpose(0, 3, 1, 2)
    K_T.imag = blocks[..., nodes:-1].transpose(0, 3, 1, 2)
    det_T = np.linalg.det(gram)
    values = np.linalg.det(K_T) * circle.prefactor               # P_T(z_m) / ∏(1 + ρ s)
    parts = np.concatenate([values.real, values.imag], axis=1)[:, None, :]
    coeff = (parts @ circle.dft)[:, 0, 0]
    ok = det_T > _SINGULAR_TOL * np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    mean_modulus = (np.abs(values)[:, None, :] @ circle.fold[:, None])[:, 0, 0]
    broken = np.flatnonzero(ok & (coeff < -_NEGATIVE_TOL * mean_modulus))
    if broken.size:
        # imported here: repro.distributions imports this module
        from repro.distributions.base import CountingOracleError

        worst = broken[np.argmin(coeff[broken])]
        raise CountingOracleError(
            f"k-DPP count for {tuple(idx[worst].tolist())} is {coeff[worst] * circle.scale:.6g}, "
            f"below the rounding of its generating polynomial")
    return np.where(ok, np.clip(coeff, 0.0, None) * circle.scale, 0.0)
