"""Cost model describing how primitives are charged to the PRAM accounting.

The paper charges (Proposition 13, [Csa75], [Ber84]):

* a determinant / characteristic polynomial of an ``n x n`` matrix:
  ``Õ(1)`` parallel depth, ``poly(n)`` work;
* a *batch* of independent counting-oracle queries issued in the same adaptive
  round: 1 round of depth total, work proportional to the number of queries;
* one step of the sequential sampling-to-counting reduction: 1 round.

:class:`CostModel` centralizes the work polynomials so they can be swapped (for
ablations) without touching samplers.  ``Õ(·)`` hides polylog factors; by
default we charge ``n**omega`` work per determinant with ``omega = 3`` (the
work of the Faddeev–LeVerrier scheme is ``O(n^4)``; Csanky-style inversion can
be done with ``O(n^omega)`` processors — the exponent does not affect any of
the *depth* claims the experiments reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class OracleCostHint:
    """Structural cost facts a distribution reports about its oracle batches.

    The hint states *structure*, not seconds.  The engine's
    :class:`~repro.engine.planner.RoundPlanner` reads ``python_fraction`` to
    guess, before it has measured one, whether a backend that escapes the
    GIL could beat the in-process round it has measured;
    :meth:`CostModel.update_break_even_depth` reads the rest to decide when
    a streaming kernel refactorizes.

    Attributes
    ----------
    matrix_order:
        Size of the matrix each query factorizes (the ``n`` fed to
        :meth:`CostModel.determinant_work`).
    python_fraction:
        Fraction of one query's work spent in GIL-bound interpreted Python
        (ESP recursions, charpoly minor sums, per-subset interpolation
        grids) rather than inside GIL-releasing LAPACK calls.  ``0`` means
        pure stacked linear algebra; ``1`` means a pure-Python loop.
    rank:
        When set, the oracle works on a rank-``rank`` factorization of the
        ``matrix_order``-sized kernel rather than the dense matrix: a query
        costs ``n·r² + r^ω`` work (reduce to the ``r x r`` dual Gram, then
        factorize it) instead of ``n^ω``.  ``None`` means dense.
    update_depth:
        Length of the incremental-update chain behind this kernel's cached
        artifacts (``0`` for a cold factorization).  Dense artifacts patched
        through the secular equation accumulate ``O(ε)`` rounding per patch,
        so past the break-even depth
        (:meth:`CostModel.update_break_even_depth`) a fresh refactorization
        is preferred — the cumulative patch work has paid for one by then,
        making the refresh amortized-free.
    """

    matrix_order: int
    python_fraction: float = 0.0
    rank: Optional[int] = None
    update_depth: int = 0


@dataclass(frozen=True)
class CostModel:
    """Work/depth charge schedule for PRAM primitives.

    Attributes
    ----------
    determinant_exponent:
        Work of one ``n x n`` determinant / marginal-kernel evaluation is
        ``n ** determinant_exponent``.
    determinant_depth:
        Parallel depth charged for one determinant evaluation.  The paper
        treats this as ``Õ(1)``; we charge ``1`` so that "rounds" directly
        measures the number of *adaptive* stages, the quantity all theorems
        bound.
    oracle_depth:
        Depth of one batched block of counting-oracle queries (``Õ(1)``).
    """

    determinant_exponent: float = 3.0
    determinant_depth: int = 1
    oracle_depth: int = 1

    def determinant_work(self, n: int) -> float:
        """Work charged for a determinant of an ``n x n`` matrix."""
        return float(max(n, 1)) ** self.determinant_exponent

    def oracle_query_work(self, n: int, queries: int = 1) -> float:
        """Work charged for ``queries`` independent counting-oracle queries."""
        return queries * self.determinant_work(n)

    # ------------------------------------------------------------------ #
    # incremental-update pricing (streaming kernels)
    # ------------------------------------------------------------------ #
    def update_patch_work(self, hint: OracleCostHint) -> float:
        """Work units of patching cached artifacts after ONE rank-1 update.

        Dense: the secular eigen-update and Sherman–Morrison kernel patch
        are ``O(n²)`` apiece (the eigenvector column transform is a matmul,
        far below ``eigh``'s constant).  Factor-backed: row append/delete on
        the factor plus recomputing the ``k``-sized artifacts, ``n·r² + r^ω``.
        """
        n = float(max(hint.matrix_order, 1))
        if hint.rank is not None:
            r = max(int(hint.rank), 1)
            return n * r * r + self.determinant_work(r)
        return n * n

    def refactorization_work(self, hint: OracleCostHint) -> float:
        """Work units of rebuilding the factorization cold after a mutation.

        Dense oracles pay the full ``n^ω`` determinant; a rank-``r``
        factor-backed oracle pays ``n·r² + r^ω`` (reduce to the dual Gram,
        factorize the ``r x r`` reduction).
        """
        if hint.rank is not None:
            return self.update_patch_work(hint)
        return self.determinant_work(hint.matrix_order)

    def update_break_even_depth(self, hint: OracleCostHint, *,
                                cap: int = 64) -> int:
        """Update-log depth past which a fresh refactorization is preferred.

        Dense spectra patched through the secular equation accumulate
        ``O(ε)`` rounding per patch; once the *cumulative* patch work rivals
        one cold factorization (``≈ n`` patches of ``n²`` against one
        ``n³``), a refresh is amortized-free and resets the drift, so that
        ratio — capped at ``cap`` for chain hygiene — is the break-even.
        Factor-backed patches are *exact* (row append/delete on ``B``), so
        they never need a drift refresh and run straight to the cap.
        """
        limit = max(int(cap), 1)
        if hint.rank is not None:
            return limit
        patch = self.update_patch_work(hint)
        refactor = self.refactorization_work(hint)
        return max(1, min(limit, int(refactor / max(patch, 1.0))))


DEFAULT_COST_MODEL = CostModel()
