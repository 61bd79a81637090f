"""The Section 7 hard instance for rejection sampling.

Ground set ``[n]`` (``n`` even) partitioned into pairs ``S_i = (2i, 2i+1)``;
``μ`` is uniform over sets formed by taking the union of ``k/2`` whole pairs.
The distribution is ``Ω(1)``-FLC [Ana+21a], its 1-marginals are uniform
(``k/n``), yet a batch of ``ℓ`` i.i.d. draws from the marginals contains
``t`` "duplicates" (both members of some pair) with probability
``(Θ(ℓ²/k))^t``, and any duplicate forces the density ratio used by rejection
sampling up by a factor ``Θ(n/k)``.  This is the obstruction showing the
``ℓ ≈ k^{1/2 - c}`` batch limit of Theorem 29 is inherent for the rejection
strategy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import HomogeneousDistribution
from repro.distributions.generic import ExplicitDistribution
from repro.utils.rng import SeedLike, as_generator
from repro.utils.subsets import binomial, subset_key
from repro.utils.validation import check_positive_int, check_subset


def duplicate_count(subset: Iterable[int], pair_of: Optional[Sequence[int]] = None) -> int:
    """Number of complete pairs contained in ``subset``.

    With the default pairing, element ``j`` belongs to pair ``j // 2``; an
    explicit ``pair_of[j]`` array may be supplied for relabeled instances.
    """
    items = list(int(i) for i in subset)
    if pair_of is None:
        labels = [i // 2 for i in items]
    else:
        labels = [int(pair_of[i]) for i in items]
    counts: Dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    return sum(1 for c in counts.values() if c >= 2)


class PairedHardInstance(HomogeneousDistribution):
    """Uniform distribution over unions of ``k/2`` pairs out of ``n/2`` pairs."""

    def __init__(self, n: int, k: int):
        n = check_positive_int(n, "n", minimum=2)
        k = check_positive_int(k, "k", minimum=2)
        if n % 2 or k % 2:
            raise ValueError(f"n and k must both be even, got n={n}, k={k}")
        if k > n:
            raise ValueError(f"k must be at most n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.num_pairs = n // 2
        self.pairs_needed = k // 2

    # ------------------------------------------------------------------ #
    # structure helpers
    # ------------------------------------------------------------------ #
    def pair_of(self, element: int) -> int:
        return int(element) // 2

    def pair_members(self, pair: int) -> Tuple[int, int]:
        return (2 * pair, 2 * pair + 1)

    def _pair_profile(self, subset: Iterable[int]) -> Tuple[int, int]:
        """``(full_pairs, touched_pairs)`` of the subset."""
        counts: Dict[int, int] = {}
        for item in subset:
            p = self.pair_of(item)
            counts[p] = counts.get(p, 0) + 1
        full = sum(1 for c in counts.values() if c == 2)
        return full, len(counts)

    # ------------------------------------------------------------------ #
    # SubsetDistribution interface
    # ------------------------------------------------------------------ #
    def counting(self, given: Iterable[int] = ()) -> float:
        """``#{S ⊇ T}`` where ``S`` ranges over unions of ``k/2`` pairs.

        A superset exists iff every touched pair can be completed, so the
        count is ``C(num_pairs - touched, pairs_needed - touched)``.
        """
        base = check_subset(given, self.n)
        _, touched = self._pair_profile(base)
        if touched > self.pairs_needed:
            return 0.0
        return float(binomial(self.num_pairs - touched, self.pairs_needed - touched))

    def unnormalized(self, subset: Iterable[int]) -> float:
        items = check_subset(subset, self.n)
        if len(items) != self.k:
            return 0.0
        full, touched = self._pair_profile(items)
        return 1.0 if (full == touched == self.pairs_needed) else 0.0

    def condition(self, include: Iterable[int]) -> ExplicitDistribution:
        """Conditioned distribution as an explicit table on the remaining elements."""
        return self.to_explicit(max_ground_set=24).condition(include)

    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        base = check_subset(given, self.n)
        denom = self.counting(base)
        if denom <= 0:
            raise ValueError("conditioning event has zero probability")
        result = np.zeros(self.n, dtype=float)
        for i in range(self.n):
            if i in base:
                result[i] = 1.0
            else:
                result[i] = self.counting(tuple(sorted(base + (i,)))) / denom
        return result

    # ------------------------------------------------------------------ #
    # exact sampling and duplicate statistics
    # ------------------------------------------------------------------ #
    def sample(self, seed: SeedLike = None) -> Tuple[int, ...]:
        """Exact sample: choose ``k/2`` pairs uniformly and take their union."""
        rng = as_generator(seed)
        chosen_pairs = rng.choice(self.num_pairs, size=self.pairs_needed, replace=False)
        items = []
        for p in chosen_pairs:
            items.extend(self.pair_members(int(p)))
        return subset_key(items)

    def sample_down(self, ell: int, seed: SeedLike = None) -> Tuple[int, ...]:
        """Exact sample from ``μ_ℓ = μ D_{k→ℓ}`` (sample then subsample)."""
        if not 0 <= ell <= self.k:
            raise ValueError(f"ell must lie in [0, {self.k}]")
        rng = as_generator(seed)
        full = self.sample(rng)
        picked = rng.choice(self.k, size=ell, replace=False)
        return subset_key(full[int(i)] for i in picked)

    def duplicate_probability(self, ell: int, threshold: int, *, samples: int = 2000,
                              seed: SeedLike = 0) -> float:
        """Monte Carlo estimate of ``P_{S ~ μ_ℓ}[#duplicates >= threshold]``."""
        rng = as_generator(seed)
        hits = 0
        for _ in range(samples):
            subset = self.sample_down(ell, rng)
            if duplicate_count(subset) >= threshold:
                hits += 1
        return hits / samples

    def duplicate_probability_exact(self, ell: int, exactly: int) -> float:
        """``P_{S ~ μ_ℓ}[#duplicates = exactly]`` in closed form.

        Choosing an ℓ-subset of a fixed union of ``k/2`` pairs: the number of
        subsets with exactly ``t`` complete pairs is
        ``C(k/2, t) * C(k/2 - t, ℓ - 2t) * 2^{ℓ - 2t}``; dividing by ``C(k, ℓ)``
        gives the probability (Section 7's calculation).
        """
        if not 0 <= ell <= self.k:
            raise ValueError(f"ell must lie in [0, {self.k}]")
        t = int(exactly)
        if t < 0 or 2 * t > ell:
            return 0.0
        half = self.pairs_needed
        numer = binomial(half, t) * binomial(half - t, ell - 2 * t) * (2 ** (ell - 2 * t))
        denom = binomial(self.k, ell)
        if denom == 0:
            return 0.0
        return numer / denom

    def density_ratio_bound(self, ell: int, duplicates: int) -> float:
        """Order of magnitude of ``μ_ℓ(S) / μ'_ℓ(S)`` for a set with ``t`` duplicates.

        Section 7: each duplicate's second element is observed with
        probability ``Θ(1/k)`` under ``μ_ℓ`` versus ``Θ(1/n)`` under the
        product proposal, so the ratio scales as ``(n/k)^t`` relative to a
        duplicate-free set.  Used by the hard-instance benchmark.
        """
        if duplicates < 0 or 2 * duplicates > ell:
            raise ValueError("invalid duplicate count")
        return float((self.n / self.k) ** duplicates)
