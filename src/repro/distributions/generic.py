"""Table-backed distributions and product proposals.

:class:`ExplicitDistribution` stores ``μ`` as an explicit subset → weight
table.  It is the ground truth used by tests and accuracy benchmarks (total
variation against samplers), the carrier for down-projected marginal
distributions ``μ_ℓ``, and the representation on which the brute-force
entropic-independence / log-concavity checkers operate.

:class:`ProductMarginalProposal` is the proposal distribution of the paper's
rejection sampler: ``ℓ`` i.i.d. draws from the normalized marginal vector
``p / k`` (Section 4, Section 5.3).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.distributions.base import SubsetDistribution
from repro.utils.rng import SeedLike, as_generator, weighted_choice
from repro.utils.subsets import Subset, all_subsets_of_size, binomial, subset_key
from repro.utils.validation import check_subset


class ExplicitDistribution(SubsetDistribution):
    """A distribution given by an explicit ``subset -> weight`` table."""

    def __init__(self, n: int, weights: Mapping[Sequence[int], float], *,
                 cardinality: Optional[int] = None, normalize: bool = True):
        self.n = int(n)
        table: Dict[Subset, float] = {}
        for subset, weight in weights.items():
            key = subset_key(subset)
            w = float(weight)
            if w < 0:
                raise ValueError(f"negative weight {w} for subset {key}")
            if key and (min(key) < 0 or max(key) >= self.n):
                raise ValueError(f"subset {key} outside ground set of size {self.n}")
            if w > 0:
                table[key] = table.get(key, 0.0) + w
        if not table:
            raise ValueError("distribution has empty support")
        self._support_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._cardinality = cardinality
        if cardinality is not None:
            bad = [s for s in table if len(s) != cardinality]
            if bad:
                raise ValueError(f"subsets {bad[:3]} violate the fixed cardinality {cardinality}")
        total = sum(table.values())
        if normalize:
            table = {s: w / total for s, w in table.items()}
            total = 1.0
        self._table = table
        self._total = total

    # ------------------------------------------------------------------ #
    @property
    def cardinality(self) -> Optional[int]:
        return self._cardinality

    @property
    def support(self) -> Tuple[Subset, ...]:
        return tuple(sorted(self._table))

    def items(self):
        return self._table.items()

    def as_dict(self) -> Dict[Subset, float]:
        return dict(self._table)

    def _support_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(mask, weights)`` arrays over the support (table order)."""
        if self._support_cache is None:
            mask = np.zeros((len(self._table), self.n), dtype=float)
            weights = np.empty(len(self._table), dtype=float)
            for row, (subset, weight) in enumerate(self._table.items()):
                if subset:
                    mask[row, list(subset)] = 1.0
                weights[row] = weight
            self._support_cache = (mask, weights)
        return self._support_cache

    def oracle_cost_hint(self) -> float:
        """Table batches are one mask matmul: vectorized, no Python lane."""
        return 0.1

    # ------------------------------------------------------------------ #
    # SubsetDistribution interface
    # ------------------------------------------------------------------ #
    def counting(self, given: Iterable[int] = ()) -> float:
        base = set(check_subset(given, self.n))
        return sum(w for s, w in self._table.items() if base.issubset(s))

    def counting_batch(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Answer a whole batch with one vectorized pass over the table.

        ``T ⊆ S`` iff ``|T ∩ S| = |T|``; the intersection sizes for every
        (query, support) pair come from a single mask matmul, so the batch
        costs one ``(batch, n) x (n, support)`` product instead of
        ``batch * support`` Python subset checks.
        """
        if not subsets:
            return np.empty(0, dtype=float)
        support_mask, weights = self._support_arrays()
        query_mask = np.zeros((len(subsets), self.n), dtype=float)
        sizes = np.empty(len(subsets), dtype=float)
        for row, subset in enumerate(subsets):
            items = check_subset(subset, self.n)
            sizes[row] = len(items)
            if items:
                query_mask[row, list(items)] = 1.0
        contained = (query_mask @ support_mask.T) >= sizes[:, None] - 0.5
        return contained @ weights

    def unnormalized(self, subset: Iterable[int]) -> float:
        return self._table.get(subset_key(subset), 0.0)

    def condition(self, include: Iterable[int]) -> "ExplicitDistribution":
        base = check_subset(include, self.n)
        base_set = set(base)
        remaining = [i for i in range(self.n) if i not in base_set]
        relabel = {old: new for new, old in enumerate(remaining)}
        new_table: Dict[Subset, float] = {}
        for subset, weight in self._table.items():
            if base_set.issubset(subset):
                reduced = subset_key(relabel[i] for i in subset if i not in base_set)
                new_table[reduced] = new_table.get(reduced, 0.0) + weight
        if not new_table:
            raise ValueError(f"conditioning event {base} has zero probability")
        new_card = None if self._cardinality is None else self._cardinality - len(base)
        conditioned = ExplicitDistribution(len(remaining), new_table, cardinality=new_card)
        conditioned._labels = tuple(remaining)
        return conditioned

    @property
    def ground_labels(self) -> Tuple[int, ...]:
        return getattr(self, "_labels", tuple(range(self.n)))

    # ------------------------------------------------------------------ #
    # exact helper operations used by tests and diagnostics
    # ------------------------------------------------------------------ #
    def marginal_vector(self, given: Iterable[int] = ()) -> np.ndarray:
        base = set(check_subset(given, self.n))
        denom = self.counting(base)
        if denom <= 0:
            raise ValueError("conditioning event has zero probability")
        result = np.zeros(self.n, dtype=float)
        for subset, weight in self._table.items():
            if base.issubset(subset):
                for i in subset:
                    result[i] += weight
        result /= denom
        for i in base:
            result[i] = 1.0
        return np.clip(result, 0.0, 1.0)

    def probability_vector(self, subsets: Sequence[Sequence[int]]) -> np.ndarray:
        """Probabilities of the listed subsets in order (useful for TV computations)."""
        z = self._total
        return np.array([self._table.get(subset_key(s), 0.0) / z for s in subsets])

    def down_project(self, ell: int) -> "ExplicitDistribution":
        """The distribution ``μ_ℓ = μ D_{k→ℓ}`` on size-``ℓ`` subsets (Definition 21).

        Requires a homogeneous distribution (fixed cardinality ``k ≥ ℓ``).
        """
        k = self._cardinality
        if k is None:
            raise ValueError("down_project requires a fixed-cardinality distribution")
        if not 0 <= ell <= k:
            raise ValueError(f"ell must be in [0, {k}], got {ell}")
        denom = binomial(k, ell)
        table: Dict[Subset, float] = {}
        from itertools import combinations

        for subset, weight in self._table.items():
            share = weight / denom
            for sub in combinations(subset, ell):
                key = subset_key(sub)
                table[key] = table.get(key, 0.0) + share
        return ExplicitDistribution(self.n, table, cardinality=ell, normalize=False)

    def sample(self, seed: SeedLike = None) -> Subset:
        """Draw one exact sample (inverse-CDF over the table)."""
        rng = as_generator(seed)
        subsets = list(self._table)
        probs = np.array([self._table[s] for s in subsets], dtype=float)
        probs = probs / probs.sum()
        idx = rng.choice(len(subsets), p=probs)
        return subsets[idx]

    def total_variation(self, other: "ExplicitDistribution") -> float:
        """Exact TV distance to another explicit distribution on the same ground set."""
        if other.n != self.n:
            raise ValueError("distributions live on different ground sets")
        keys = set(self._table) | set(other._table)
        z_self = sum(self._table.values())
        z_other = sum(other._table.values())
        return 0.5 * sum(
            abs(self._table.get(s, 0.0) / z_self - other._table.get(s, 0.0) / z_other)
            for s in keys
        )


def uniform_distribution_on_size_k(n: int, k: int) -> ExplicitDistribution:
    """The uniform distribution over all size-``k`` subsets of ``[n]``."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    table = {subset: 1.0 for subset in all_subsets_of_size(n, k)}
    return ExplicitDistribution(n, table, cardinality=k)


class ProductMarginalProposal:
    """The proposal ``μ'_ℓ``: ``ℓ`` i.i.d. draws from the normalized marginals ``p / k``.

    Matches the proposal used in Theorem 10's proof and Section 5.3: ordered
    tuples ``(i_1, ..., i_ℓ)`` with ``Q(tuple) = ∏_r p_{i_r} / k``.
    """

    def __init__(self, marginals: np.ndarray, k: float):
        p = np.asarray(marginals, dtype=float)
        if p.ndim != 1:
            raise ValueError("marginals must be a vector")
        if np.any(p < -1e-12):
            raise ValueError("marginals must be nonnegative")
        if k <= 0:
            raise ValueError("k must be positive")
        self.marginals = np.clip(p, 0.0, None)
        self.k = float(k)
        total = self.marginals.sum()
        if total <= 0:
            raise ValueError("marginal vector has zero mass")
        # Normalized proposal over single elements; by definition of marginals
        # of a homogeneous distribution, total ≈ k, but we renormalize to be
        # robust to floating point noise.
        self.single = self.marginals / total

    @property
    def n(self) -> int:
        return self.marginals.size

    def sample_tuples(self, ell: int, count: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``count`` ordered tuples of length ``ell`` (shape ``(count, ell)``)."""
        rng = as_generator(seed)
        if ell == 0:
            return np.empty((count, 0), dtype=int)
        return weighted_choice(rng, self.single, (count, ell))

    def log_density_tuple(self, ordered: Sequence[int]) -> float:
        """Log proposal density of one ordered tuple under ``∏ p_i / k``."""
        if len(ordered) == 0:
            return 0.0
        probs = self.marginals[np.asarray(ordered, dtype=int)] / self.k
        if np.any(probs <= 0):
            return -math.inf
        return float(np.log(probs).sum())

    def log_density_tuples(self, ordered: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`log_density_tuple` for a ``(count, ell)`` array."""
        arr = np.asarray(ordered, dtype=int)
        if arr.size == 0:
            return np.zeros(arr.shape[0])
        probs = self.marginals[arr] / self.k
        with np.errstate(divide="ignore"):
            logs = np.where(probs > 0, np.log(np.where(probs > 0, probs, 1.0)), -np.inf)
        return logs.sum(axis=1)
