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


@dataclass(frozen=True)
class CostModel:
    """Work charge schedule for PRAM primitives.

    Depth is not priced here: every theorem bounds *adaptive rounds*, and
    :meth:`~repro.pram.tracker.Tracker.round` counts those directly.

    Attributes
    ----------
    determinant_exponent:
        Work of one ``n x n`` determinant / marginal-kernel evaluation is
        ``n ** determinant_exponent``.
    """

    determinant_exponent: float = 3.0

    def determinant_work(self, n: int) -> float:
        """Work charged for a determinant of an ``n x n`` matrix."""
        return float(max(n, 1)) ** self.determinant_exponent

    def oracle_query_work(self, n: int, queries: int = 1) -> float:
        """Work charged for ``queries`` independent counting-oracle queries."""
        return queries * self.determinant_work(n)


DEFAULT_COST_MODEL = CostModel()
