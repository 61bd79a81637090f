"""Subset enumeration and encoding helpers.

Subsets of the ground set ``[n] = {0, ..., n-1}`` are represented throughout
the library as sorted tuples of Python ints (hashable, order-free), or as
boolean masks when vectorized access is needed.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Tuple

import numpy as np

Subset = Tuple[int, ...]


def subset_key(items: Iterable[int]) -> Subset:
    """Canonical hashable representation of a subset (sorted tuple)."""
    return tuple(sorted(int(i) for i in items))


def all_subsets(n: int) -> Iterator[Subset]:
    """Yield all ``2**n`` subsets of ``[n]`` as sorted tuples."""
    for size in range(n + 1):
        yield from all_subsets_of_size(n, size)


def all_subsets_of_size(n: int, k: int) -> Iterator[Subset]:
    """Yield all ``C(n, k)`` subsets of ``[n]`` of size exactly ``k``."""
    if k < 0 or k > n:
        return
    yield from combinations(range(n), k)


def subset_to_mask(subset: Iterable[int], n: int) -> np.ndarray:
    """Boolean indicator vector of length ``n`` for ``subset``."""
    mask = np.zeros(n, dtype=bool)
    idx = list(subset)
    if idx:
        arr = np.asarray(idx, dtype=int)
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError(f"subset {idx} out of range for ground set of size {n}")
        mask[arr] = True
    return mask


def binomial(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)`` (0 outside the valid range)."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)
