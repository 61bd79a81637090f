"""Negative correlation diagnostics (Lemma 16 / Corollary 18).

A strongly Rayleigh distribution satisfies
``P[T ⊆ S] <= ∏_{i in T} P[i ∈ S]`` for every ``T``.  Symmetric DPPs and
k-DPPs are strongly Rayleigh (Lemma 17), which is what powers Lemma 27's
density-ratio bound ``C = ∏_{i<ℓ} k/(k − i)`` (acceptance ``1/C``, near
``1/e`` at Theorem 10's batch ``ℓ = ⌈√(2k)⌉``).  Nonsymmetric DPPs generally are
*not* negatively correlated — the diagnostics here are used both to verify the
positive cases and to exhibit the violations the paper's Section 1.2 discusses.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.distributions.generic import ExplicitDistribution
from repro.utils.subsets import Subset


def negative_correlation_violations(mu: ExplicitDistribution, *, max_order: Optional[int] = None,
                                    tol: float = 1e-10) -> List[Tuple[Subset, float, float]]:
    """All subsets ``T`` violating ``P[T ⊆ S] <= ∏_{i in T} P[i ∈ S]``.

    Returns a list of ``(T, joint, product)`` triples with ``joint > product + tol``,
    checking all ``T`` of size 2..max_order (default: the distribution's
    cardinality, or ``n`` for unconstrained distributions).
    """
    n = mu.n
    z = mu.counting(())
    singles = mu.marginal_vector()
    upper = max_order if max_order is not None else (mu.cardinality or n)
    violations: List[Tuple[Subset, float, float]] = []
    for order in range(2, min(upper, n) + 1):
        for subset in combinations(range(n), order):
            joint = mu.counting(subset) / z
            if joint <= 0:
                continue
            product = float(np.prod(singles[list(subset)]))
            if joint > product + tol * max(1.0, product):
                violations.append((subset, joint, product))
    return violations


def is_negatively_correlated(mu: ExplicitDistribution, *, max_order: Optional[int] = None,
                             tol: float = 1e-10) -> bool:
    """True iff no negative-correlation violations are found (brute force)."""
    return not negative_correlation_violations(mu, max_order=max_order, tol=tol)
