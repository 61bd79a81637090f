"""Incremental (rank-1 / low-rank) updates of kernel factorizations.

Real serving traffic mutates kernels — a recommender appends items, a
summarizer re-weights quality scores — and recomputing an ``n x n``
eigendecomposition per mutation costs ``O(n³)``.  This module makes each
mutation an ``O(n²)`` (dense) or ``O(n·k)`` (factor) *patch* instead:

* :func:`rank_one_eigh_update` — the secular-equation update of Bunch,
  Nielsen & Sorensen / Gu & Eisenstat: given ``A = V diag(d) Vᵀ``, the
  spectrum of ``A + ρ z zᵀ`` is found from the roots of the rational secular
  function ``f(λ) = 1 + ρ Σ w_j²/(d_j − λ)`` with ``w = Vᵀz``, and the new
  eigenvectors are a column transform of ``V`` — no fresh ``eigh``.
* :func:`symmetric_rank_one_terms` — splits the symmetrized outer-product
  update ``weight · (u vᵀ + v uᵀ)/2`` into at most two *symmetric* rank-1
  terms ``ρ z zᵀ`` so the secular machinery applies term by term.
* :class:`KernelUpdate` — the serializable mutation descriptor the serving
  and cluster layers ship instead of full matrices (``rank_one`` for dense
  kinds, ``append_rows`` / ``delete_rows`` for ``LowRankKernel`` factors).

A patched pair feeds :func:`repro.linalg.batch.factor_from_eigh`, the same
routine a cold factor comes from, so every other artifact of a symmetric
kernel is re-derived from it.

Relationship to :mod:`repro.linalg.schur`: Schur complements handle the
*conditioning* direction (fixing items in/out of a draw), these routines
handle the *additive* direction (mutating the kernel between draws); the
property tests exercise their agreement on updated-then-conditioned
ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KernelUpdate",
    "rank_one_eigh_update",
    "symmetric_rank_one_terms",
]

#: relative deflation / clustering tolerance for the secular update.
#: ``sqrt(eps)`` balances the two error sources: deflating a cluster commits
#: error bounded by its spread (``<= tol * scale``), while *not* deflating
#: amplifies roundoff by ``eps / gap`` in the eigenvector division — at a
#: gap of ``1e-10`` the undeflated path loses ~1e-6 of reconstruction
#: accuracy where deflation stays below 1e-12.
_DEFLATION_TOL = float(np.sqrt(np.finfo(float).eps))


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


# --------------------------------------------------------------------------- #
# secular-equation eigen update
# --------------------------------------------------------------------------- #
def _deflate_clusters(d: np.ndarray, V: np.ndarray, w: np.ndarray,
                      tol: float) -> None:
    """Rotate each near-degenerate eigenvalue cluster's update weight.

    For a cluster of (numerically) equal ``d`` values, any orthogonal mix of
    the cluster's eigenvectors is still an eigenbasis, so a Householder
    reflection concentrates the cluster's whole ``w``-mass into its last
    member — the rest deflate exactly.  Mutates ``V`` and ``w`` in place;
    the committed error is bounded by the cluster's eigenvalue spread,
    itself below ``tol * scale``.
    """
    n = d.size
    scale = max(float(np.abs(d).max(initial=0.0)), 1.0)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and d[j + 1] - d[j] <= tol * scale:
            j += 1
        if j > i:
            g = slice(i, j + 1)
            wg = w[g]
            norm = float(np.linalg.norm(wg))
            if norm > 0.0:
                h = wg.copy()
                h[-1] -= norm
                hn = float(h @ h)
                if hn > 0.0:
                    Vg = V[:, g]
                    V[:, g] = Vg - np.outer(Vg @ h, (2.0 / hn) * h)
                w[g] = 0.0
                w[j] = norm
        i = j + 1


def _secular_roots(d: np.ndarray, w2: np.ndarray, rho: float) -> np.ndarray:
    """All roots of ``f(λ) = 1 + ρ Σ w2_j/(d_j − λ)`` by safeguarded bisection.

    Interlacing gives one root per open interval — ``(d_i, d_{i+1})`` for
    ``ρ > 0`` with the last root in ``(d_m, d_m + ρ Σ w2)``, mirrored below
    for ``ρ < 0`` — and ``f`` is monotone on each, so bisection converges
    unconditionally; the loop runs to interval widths at the floating-point
    floor, which keeps the iteration count data-independent in practice.
    """
    m = d.size
    total = float(w2.sum())
    if rho > 0:
        lo = d.copy()
        hi = np.concatenate([d[1:], [d[-1] + rho * total]])
    else:
        lo = np.concatenate([[d[0] + rho * total], d[:-1]])
        hi = d.copy()
    sign = 1.0 if rho > 0 else -1.0
    span = np.maximum(np.abs(lo) + np.abs(hi), 1.0)
    eps = np.finfo(float).eps
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        # f(mid) for every interval at once: (m, m) pole matrix
        diff = d[:, None] - mid[None, :]
        f = 1.0 + rho * (w2[:, None] / diff).sum(axis=0)
        grow = sign * f < 0.0
        lo = np.where(grow, mid, lo)
        hi = np.where(grow, hi, mid)
        if np.all(hi - lo <= 2.0 * eps * span):
            break
    return 0.5 * (lo + hi)


def _gu_eisenstat_weights(d: np.ndarray, lam: np.ndarray, rho: float) -> np.ndarray:
    """Recomputed update weights ``ŵ`` consistent with the computed roots.

    Evaluating ``ŵ_j² = Π_i (λ_i − d_j) / (ρ Π_{i≠j} (d_i − d_j))`` with the
    interlacing-aware pairing keeps every partial product ``O(1)`` (no
    overflow) and makes the eigenvectors computed from ``ŵ`` numerically
    orthogonal even for clustered spectra [Gu & Eisenstat '94].
    """
    m = d.size
    rows = np.arange(m)[:, None]
    cols = np.arange(m)[None, :]
    num = lam[:, None] - d[None, :]
    if rho > 0:
        # pair λ_i with d_i below the diagonal and d_{i+1} on/above it; the
        # final root λ_{m-1} (beyond d_{m-1}) pairs with ρ itself
        shifted = np.where(rows < cols, rows, np.minimum(rows + 1, m - 1))
        den = d[shifted] - d[cols]
        ratios = np.empty_like(num)
        ratios[:-1, :] = num[:-1, :] / den[:-1, :]
        ratios[-1, :] = num[-1, :] / rho
    else:
        shifted = np.where(rows > cols, rows, np.maximum(rows - 1, 0))
        den = d[shifted] - d[cols]
        ratios = np.empty_like(num)
        ratios[1:, :] = num[1:, :] / den[1:, :]
        ratios[0, :] = num[0, :] / rho
    w2 = np.prod(ratios, axis=0)
    return np.sqrt(np.clip(w2, 0.0, None))


def rank_one_eigh_update(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
                         vector: np.ndarray, weight: float, *,
                         tol: float = _DEFLATION_TOL
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of ``A + weight · z zᵀ`` from that of ``A``.

    ``eigenvalues`` must be ascending with ``eigenvectors`` the matching
    orthonormal columns (the :func:`numpy.linalg.eigh` contract).  Returns a
    fresh ascending ``(eigenvalues, eigenvectors)`` pair; the inputs are not
    modified.  Cost is ``O(n²)`` plus one ``n x n`` by ``n x m`` product for
    the eigenvector transform — never a fresh ``O(n³)`` ``eigh``.

    Components with ``|w_j| = |(Vᵀz)_j|`` below ``tol·‖z‖`` deflate (their
    eigenpairs pass through unchanged), as do all but one member of each
    eigenvalue cluster tighter than ``tol·scale`` — both standard moves of
    the secular method, each committing error bounded by ``tol``.
    """
    d = np.asarray(eigenvalues, dtype=float)
    V = np.asarray(eigenvectors, dtype=float)
    z = np.asarray(vector, dtype=float).reshape(-1)
    n = d.size
    if V.shape != (n, n) or z.size != n:
        raise ValueError(
            f"shape mismatch: eigenvalues {d.shape}, eigenvectors {V.shape}, "
            f"vector {z.shape}")
    rho = float(weight)
    znorm = float(np.linalg.norm(z))
    if n == 0 or rho == 0.0 or znorm == 0.0:
        return d.copy(), V.copy()
    if np.any(np.diff(d) < 0):
        raise ValueError("eigenvalues must be ascending (numpy.linalg.eigh order)")

    V = V.copy()
    w = V.T @ z
    _deflate_clusters(d, V, w, tol)
    active = np.abs(w) > tol * max(znorm, 1.0)
    if not np.any(active):
        return d.copy(), V

    d_act = d[active]
    w_act = w[active]
    lam = _secular_roots(d_act, w_act * w_act, rho)
    # recomputed magnitudes carry no sign (the secular function only sees
    # w²); the eigenvector formula needs the original signs back
    w_hat = np.copysign(_gu_eisenstat_weights(d_act, lam, rho), w_act)

    # eigenvectors of diag(d) + ρ w wᵀ: u_i ∝ (ŵ_j / (d_j − λ_i))_j
    denom = d_act[:, None] - lam[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        U = w_hat[:, None] / denom
    bad = ~np.isfinite(U)
    if np.any(bad):
        U[bad] = 0.0
    norms = np.linalg.norm(U, axis=0)
    degenerate = norms <= 0.0
    if np.any(degenerate):
        # a root collapsed onto its pole (fully deflatable component that
        # survived the threshold): the eigenvector is the pole's own axis
        for i in np.nonzero(degenerate)[0]:
            U[np.argmin(np.abs(denom[:, i])), i] = 1.0
        norms = np.linalg.norm(U, axis=0)
    U /= norms

    new_d = np.concatenate([d[~active], lam])
    new_V = np.concatenate([V[:, ~active], V[:, active] @ U], axis=1)
    order = np.argsort(new_d, kind="stable")
    return new_d[order], new_V[:, order]


def symmetric_rank_one_terms(u: np.ndarray, v: Optional[np.ndarray] = None,
                             weight: float = 1.0
                             ) -> Tuple[Tuple[np.ndarray, float], ...]:
    """Symmetric rank-1 terms ``(z, ρ)`` summing to ``weight · sym(u vᵀ)``.

    ``v=None`` means the pure rank-1 update ``weight · u uᵀ`` (one term);
    otherwise ``weight · (u vᵀ + v uᵀ)/2 = weight·(p pᵀ − q qᵀ)`` with
    ``p = (u+v)/2`` and ``q = (u−v)/2`` (at most two terms).  Zero-weight
    and zero-vector terms are dropped.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    w = float(weight)
    if w == 0.0:
        return ()
    if v is None:
        return ((u.copy(), w),) if np.any(u) else ()
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != u.shape:
        raise ValueError(f"u and v must match: {u.shape} vs {v.shape}")
    p = 0.5 * (u + v)
    q = 0.5 * (u - v)
    terms = []
    if np.any(p):
        terms.append((p, w))
    if np.any(q):
        terms.append((q, -w))
    return tuple(terms)


#: rows of ``rho · u vᵀ`` that :func:`_add_outer` forms at a time
_OUTER_BLOCK_ROWS = 64


def _add_outer(out: np.ndarray, rho: float, u: np.ndarray, v: np.ndarray) -> None:
    """``out += rho * np.outer(u, v)``, bitwise, one block of rows at a time.

    Each element is ``rho * (u_i * v_j)`` either way, so blocking changes no
    bit; it keeps the temporary at ``_OUTER_BLOCK_ROWS`` rows instead of a
    second ``n x n`` array.
    """
    for start in range(0, out.shape[0], _OUTER_BLOCK_ROWS):
        rows = slice(start, start + _OUTER_BLOCK_ROWS)
        out[rows] += rho * np.outer(u[rows], v)


# --------------------------------------------------------------------------- #
# the serializable mutation descriptor
# --------------------------------------------------------------------------- #
#: kernel kinds a given op may be applied to
_OP_KINDS = {
    "rank_one": ("symmetric", "nonsymmetric"),
    "append_rows": ("lowrank",),
    "delete_rows": ("lowrank",),
}


@dataclass(frozen=True)
class KernelUpdate:
    """One incremental kernel mutation, shippable as a delta.

    Construct through the classmethods — they validate, copy and freeze the
    payload arrays:

    * :meth:`rank_one` — dense kinds: ``L += weight · u uᵀ`` (``v=None``),
      ``weight · (u vᵀ + v uᵀ)/2`` (symmetric) or ``weight · u vᵀ``
      (nonsymmetric).
    * :meth:`append_rows` — ``lowrank``: new factor rows (ground-set items).
    * :meth:`delete_rows` — ``lowrank``: drop factor rows by index.

    The payload is ``O(n)``/``O(m·k)`` — this is what the cluster ships in
    place of a full ``n x n`` (or ``n x k``) re-registration, and what the
    fingerprint chain (:func:`repro.utils.fingerprint.chain_fingerprint`)
    digests to derive the mutated kernel's cache identity without the
    mutated matrix.
    """

    op: str
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    weight: float = 1.0
    rows: Optional[np.ndarray] = None
    indices: Tuple[int, ...] = field(default=())

    # ------------------------------------------------------------------ #
    @classmethod
    def rank_one(cls, u: np.ndarray, v: Optional[np.ndarray] = None, *,
                 weight: float = 1.0) -> "KernelUpdate":
        uu = _frozen(np.asarray(u, dtype=float).reshape(-1))
        vv = None
        if v is not None:
            vv = _frozen(np.asarray(v, dtype=float).reshape(-1))
            if vv.shape != uu.shape:
                raise ValueError(f"u and v must match: {uu.shape} vs {vv.shape}")
        return cls(op="rank_one", u=uu, v=vv, weight=float(weight))

    @classmethod
    def append_rows(cls, rows: np.ndarray) -> "KernelUpdate":
        arr = np.asarray(rows, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(f"rows must be a nonempty (m, k) array, got {arr.shape}")
        return cls(op="append_rows", rows=_frozen(arr))

    @classmethod
    def delete_rows(cls, indices: Sequence[int]) -> "KernelUpdate":
        idx = tuple(int(i) for i in indices)
        if not idx:
            raise ValueError("delete_rows needs at least one index")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate delete indices: {sorted(idx)}")
        return cls(op="delete_rows", indices=idx)

    # ------------------------------------------------------------------ #
    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The update's array payload, in a deterministic order (for digests)."""
        out = []
        for a in (self.u, self.v, self.rows):
            if a is not None:
                out.append(a)
        return tuple(out)

    def signature(self) -> Tuple[object, ...]:
        """Scalar identity of the update (joined with :meth:`arrays` in digests)."""
        return (self.op, repr(self.weight), self.indices)

    @property
    def delta_nbytes(self) -> int:
        """Bytes of array payload — the delta the cluster ships over the wire."""
        return sum(a.nbytes for a in self.arrays())

    def chained_fingerprint(self, previous: str) -> str:
        """Fingerprint of the kernel this update derives from ``previous``.

        Computable by anyone holding the predecessor's fingerprint and the
        delta — a cluster client derives the expected post-update identity
        of every replica without ever seeing the mutated matrix.
        """
        from repro.utils.fingerprint import chain_fingerprint

        return chain_fingerprint(previous, *self.arrays(), extra=self.signature())

    # ------------------------------------------------------------------ #
    def validate_for(self, kind: str, n: int) -> None:
        """Raise unless this update applies to a ``kind`` kernel of order ``n``."""
        allowed = _OP_KINDS.get(self.op)
        if allowed is None:
            raise ValueError(f"unknown update op {self.op!r}")
        if kind not in allowed:
            raise ValueError(
                f"update op {self.op!r} does not apply to kind={kind!r} "
                f"(supported: {', '.join(allowed)})")
        if self.op == "rank_one":
            if self.u is None or self.u.size != n:
                got = None if self.u is None else self.u.size
                raise ValueError(f"rank_one vector length {got} != kernel order {n}")
        elif self.op == "delete_rows":
            bad = [i for i in self.indices if not 0 <= i < n]
            if bad:
                raise ValueError(f"delete indices {bad} out of range for n={n}")
            if len(self.indices) >= n:
                raise ValueError("cannot delete every row of a kernel")

    def rank_one_terms(self, kind: str) -> Tuple[Tuple[np.ndarray, float], ...]:
        """The symmetric rank-1 terms a dense patch applies sequentially.

        Symmetric kernels receive the *symmetrized* update (so they stay
        symmetric); nonsymmetric kernels receive ``weight · u vᵀ`` literally
        (one general term, encoded as ``(u, v, weight)``).
        """
        if self.op != "rank_one":
            raise ValueError(f"op {self.op!r} has no rank-1 terms")
        if kind == "symmetric":
            return symmetric_rank_one_terms(self.u, self.v, self.weight)
        raise ValueError(f"rank_one_terms is for symmetric kernels, got {kind!r}")

    def apply(self, matrix: np.ndarray, kind: str) -> np.ndarray:
        """The mutated matrix (dense ensemble or low-rank factor), frozen.

        This is the *content* ground truth every patched artifact must agree
        with — ``KernelRegistry.apply_update`` installs exactly this array so
        a cold re-registration of the result reproduces the served kernel
        bitwise.
        """
        self.validate_for(kind, matrix.shape[0])
        if self.op == "rank_one":
            out = np.array(matrix, dtype=float, copy=True)
            if kind == "symmetric":
                for z, rho in self.rank_one_terms(kind):
                    _add_outer(out, rho, z, z)
            else:
                _add_outer(out, self.weight, self.u,
                           self.u if self.v is None else self.v)
        elif self.op == "append_rows":
            if self.rows.shape[1] != matrix.shape[1]:
                raise ValueError(
                    f"appended rows have {self.rows.shape[1]} columns, factor "
                    f"has {matrix.shape[1]}")
            out = np.concatenate([matrix, self.rows], axis=0)
        else:  # delete_rows
            out = np.delete(matrix, list(self.indices), axis=0)
        # every branch made a new array: freeze it in place, not a copy of it
        out = np.ascontiguousarray(out, dtype=float)
        out.flags.writeable = False
        return out
