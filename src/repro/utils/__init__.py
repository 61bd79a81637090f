"""Shared utilities: RNG handling, subset helpers, argument validation."""

from repro.utils.fingerprint import array_fingerprint
from repro.utils.rng import as_generator, spawn_generators, substream
from repro.utils.subsets import (
    all_subsets,
    all_subsets_of_size,
    subset_to_mask,
    subset_key,
    binomial,
)
from repro.utils.validation import (
    check_square,
    check_subset,
    check_positive_int,
)

__all__ = [
    "array_fingerprint",
    "as_generator",
    "spawn_generators",
    "substream",
    "all_subsets",
    "all_subsets_of_size",
    "subset_to_mask",
    "subset_key",
    "binomial",
    "check_square",
    "check_subset",
    "check_positive_int",
]
