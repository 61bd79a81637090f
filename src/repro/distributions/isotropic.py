"""Isotropic (subdivision) transformation — Definition 30 / Proposition 32.

Given ``μ`` on ``C([n], k)`` with marginals ``p_i``, the subdivision creates
``t_i = ceil(n p_i / (β k))`` copies of element ``i``; the lifted distribution
``μ_iso`` spreads each atom's mass uniformly over the choices of copies.  The
lifted measure has nearly uniform 1-marginals (Proposition 32), preserves
``1/α``-entropic independence (Proposition 31), and sampling from ``μ_iso``'s
ℓ-marginals is equivalent to sampling from ``μ_ℓ`` (Remark 33): simply forget
which copy was chosen.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.distributions.generic import ExplicitDistribution
from repro.utils.rng import SeedLike, as_generator
from repro.utils.subsets import subset_key


class IsotropicTransform:
    """Bookkeeping for the Definition 30 subdivision of a ground set.

    Parameters
    ----------
    marginals:
        Vector ``p`` of marginals of the original distribution
        (``Σ p_i = k`` for homogeneous distributions).
    k:
        The cardinality parameter of the original distribution.
    beta:
        Subdivision parameter ``β ∈ (0, 1)``; smaller ``β`` means more copies
        and tighter marginal bounds (the paper sets ``√β = ε / (32 k)``).
    """

    def __init__(self, marginals: Sequence[float], k: int, beta: float):
        p = np.asarray(marginals, dtype=float)
        if p.ndim != 1:
            raise ValueError("marginals must be a vector")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValueError("marginals must lie in [0, 1]")
        if not 0 < beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if k <= 0:
            raise ValueError("k must be positive")
        self.original_marginals = np.clip(p, 0.0, 1.0)
        self.n = p.size
        self.k = int(k)
        self.beta = float(beta)
        # t_i = ceil(n p_i / (beta k)); elements with zero marginal keep one
        # (never-chosen) copy so the index bookkeeping stays total.
        raw = np.ceil(self.n * self.original_marginals / (self.beta * self.k)).astype(int)
        self.copy_counts = np.maximum(raw, 1)
        self.offsets = np.concatenate([[0], np.cumsum(self.copy_counts)])
        self.size = int(self.offsets[-1])
        # copy -> original element lookup
        self._owner = np.repeat(np.arange(self.n), self.copy_counts)

    # ------------------------------------------------------------------ #
    # index maps
    # ------------------------------------------------------------------ #
    def original_of(self, copy_index: int) -> int:
        """Original element that copy ``copy_index`` belongs to."""
        if not 0 <= copy_index < self.size:
            raise ValueError(f"copy index {copy_index} out of range [0, {self.size})")
        return int(self._owner[copy_index])

    def originals_of(self, copy_indices: Iterable[int]) -> Tuple[int, ...]:
        """Vectorized :meth:`original_of` preserving order (may contain repeats)."""
        arr = np.asarray(list(copy_indices), dtype=int)
        if arr.size and (arr.min() < 0 or arr.max() >= self.size):
            raise ValueError("copy index out of range")
        return tuple(int(i) for i in self._owner[arr]) if arr.size else ()

    def copies_of(self, element: int) -> Tuple[int, ...]:
        """All copy indices of an original element."""
        if not 0 <= element < self.n:
            raise ValueError(f"element {element} out of range")
        return tuple(range(int(self.offsets[element]), int(self.offsets[element + 1])))

    # ------------------------------------------------------------------ #
    # lifted quantities
    # ------------------------------------------------------------------ #
    def lifted_marginals(self) -> np.ndarray:
        """Marginals of ``μ_iso``: ``p_i / t_i`` for every copy of ``i``."""
        return self.original_marginals[self._owner] / self.copy_counts[self._owner]

    def marginal_bounds(self) -> Tuple[float, float, float]:
        """``(C, lower, upper)`` of Proposition 32: ``C = 1 + √β`` and the
        bounds ``k / (C |U|)`` (for well-represented elements) and ``C k / |U|``."""
        C = 1.0 + math.sqrt(self.beta)
        return C, self.k / (C * self.size), C * self.k / self.size

    def well_represented(self) -> np.ndarray:
        """Boolean mask over copies in the set ``R`` of Proposition 32
        (copies of elements with ``p_i >= √β · k / n``)."""
        threshold = math.sqrt(self.beta) * self.k / self.n
        return (self.original_marginals >= threshold)[self._owner]

    def ground_set_bounds(self) -> Tuple[float, float]:
        """Proposition 32.3 bounds on ``|U|``: ``n/β <= |U| <= n (1 + 1/β)``."""
        return self.n / self.beta, self.n * (1.0 + 1.0 / self.beta)

    # ------------------------------------------------------------------ #
    # lifting samples / distributions
    # ------------------------------------------------------------------ #
    def lift_sample(self, subset: Iterable[int], seed: SeedLike = None) -> Tuple[int, ...]:
        """Lift a sample of ``μ`` to a sample of ``μ_iso`` by choosing a uniform copy."""
        rng = as_generator(seed)
        lifted = []
        for element in subset:
            copies = self.copies_of(int(element))
            lifted.append(int(rng.choice(copies)))
        return subset_key(lifted)

    def project_sample(self, copies: Iterable[int]) -> Tuple[int, ...]:
        """Project a ``μ_iso`` sample back to original labels (Remark 33)."""
        originals = self.originals_of(copies)
        if len(set(originals)) != len(originals):
            raise ValueError("lifted sample contains two copies of the same element")
        return subset_key(originals)

    def lift_explicit(self, mu: ExplicitDistribution) -> ExplicitDistribution:
        """Materialize ``μ_iso`` as an explicit table (small instances / tests)."""
        if mu.n != self.n:
            raise ValueError("distribution ground set does not match the transform")
        from itertools import product

        table: Dict[Tuple[int, ...], float] = {}
        for subset, weight in mu.items():
            copy_lists = [self.copies_of(i) for i in subset]
            denom = float(np.prod([len(c) for c in copy_lists])) if copy_lists else 1.0
            share = weight / denom
            for combo in product(*copy_lists):
                key = subset_key(combo)
                table[key] = table.get(key, 0.0) + share
        return ExplicitDistribution(self.size, table, cardinality=mu.cardinality)
