"""Brute-force exact DPP distributions (ground truth for tests and accuracy benches).

All helpers enumerate subsets explicitly and are therefore restricted to small
ground sets; they exist to validate the fast oracles and the samplers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions.generic import ExplicitDistribution
from repro.utils.subsets import all_subsets, all_subsets_of_size, subset_key

_MAX_BRUTE_FORCE_N = 18


def _minor(L: np.ndarray, subset) -> float:
    idx = list(subset)
    if not idx:
        return 1.0
    return float(np.linalg.det(L[np.ix_(idx, idx)]))


def exact_dpp_distribution(L: np.ndarray, *, max_n: int = _MAX_BRUTE_FORCE_N) -> ExplicitDistribution:
    """Exact unconstrained DPP distribution ``P[S] ∝ det(L_S)`` by enumeration."""
    mat = np.asarray(L, dtype=float)
    n = mat.shape[0]
    if n > max_n:
        raise ValueError(f"refusing brute-force enumeration for n={n} > {max_n}")
    table = {}
    for subset in all_subsets(n):
        weight = _minor(mat, subset)
        if weight > 0:
            table[subset_key(subset)] = weight
    return ExplicitDistribution(n, table)


def exact_kdpp_distribution(L: np.ndarray, k: int, *, max_n: int = _MAX_BRUTE_FORCE_N) -> ExplicitDistribution:
    """Exact k-DPP distribution by enumeration of all size-``k`` subsets."""
    mat = np.asarray(L, dtype=float)
    n = mat.shape[0]
    if n > max_n:
        raise ValueError(f"refusing brute-force enumeration for n={n} > {max_n}")
    table = {}
    for subset in all_subsets_of_size(n, k):
        weight = _minor(mat, subset)
        if weight > 0:
            table[subset_key(subset)] = weight
    return ExplicitDistribution(n, table, cardinality=k)


def exact_partition_dpp_distribution(L: np.ndarray, parts: Sequence[Sequence[int]],
                                     counts: Sequence[int], *,
                                     max_n: int = _MAX_BRUTE_FORCE_N) -> ExplicitDistribution:
    """Exact Partition-DPP distribution by enumeration (Definition 7)."""
    mat = np.asarray(L, dtype=float)
    n = mat.shape[0]
    if n > max_n:
        raise ValueError(f"refusing brute-force enumeration for n={n} > {max_n}")
    part_of = {}
    for idx, part in enumerate(parts):
        for element in part:
            part_of[int(element)] = idx
    k = int(sum(counts))
    table = {}
    for subset in all_subsets_of_size(n, k):
        tallies = [0] * len(parts)
        for item in subset:
            tallies[part_of[item]] += 1
        if tuple(tallies) != tuple(int(c) for c in counts):
            continue
        weight = _minor(mat, subset)
        if weight > 0:
            table[subset_key(subset)] = weight
    return ExplicitDistribution(n, table, cardinality=k)
