"""Tests for repro.utils.subsets."""

import math

import numpy as np
import pytest

from repro.utils.subsets import (
    all_subsets,
    all_subsets_of_size,
    binomial,
    subset_key,
    subset_to_mask,
)


class TestSubsetKey:
    def test_sorts(self):
        assert subset_key([3, 1, 2]) == (1, 2, 3)

    def test_empty(self):
        assert subset_key([]) == ()

    def test_coerces_ints(self):
        assert subset_key(np.array([2, 0])) == (0, 2)


class TestEnumeration:
    def test_all_subsets_count(self):
        assert len(list(all_subsets(4))) == 16

    def test_all_subsets_of_size_count(self):
        assert len(list(all_subsets_of_size(5, 2))) == 10

    def test_all_subsets_of_size_out_of_range(self):
        assert list(all_subsets_of_size(3, 5)) == []
        assert list(all_subsets_of_size(3, -1)) == []

    def test_subsets_are_sorted_tuples(self):
        for s in all_subsets_of_size(5, 3):
            assert tuple(sorted(s)) == s

    def test_all_subsets_includes_empty_and_full(self):
        subsets = set(all_subsets(3))
        assert () in subsets
        assert (0, 1, 2) in subsets


class TestMasks:
    def test_roundtrip(self):
        subset = (0, 2, 4)
        assert tuple(np.flatnonzero(subset_to_mask(subset, 6))) == subset

    def test_empty_mask(self):
        mask = subset_to_mask([], 4)
        assert mask.shape == (4,) and mask.sum() == 0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            subset_to_mask([5], 4)


class TestBinomial:
    def test_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(10, 10) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 1) == 0

    def test_matches_math_comb(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)
