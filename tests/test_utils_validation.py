"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_positive_int,
    check_square,
    check_subset,
)


class TestCheckSquare:
    def test_valid(self):
        out = check_square(np.eye(3))
        assert out.shape == (3, 3)

    def test_rectangular_raises(self):
        with pytest.raises(ValueError):
            check_square(np.zeros((2, 3)))

    def test_vector_raises(self):
        with pytest.raises(ValueError):
            check_square(np.zeros(4))

    def test_nan_raises(self):
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            check_square(bad)

    def test_casts_to_float(self):
        out = check_square(np.eye(2, dtype=int))
        assert out.dtype == float


class TestCheckSubset:
    def test_sorted_output(self):
        assert check_subset([3, 1], 5) == (1, 3)

    def test_duplicates_raise(self):
        with pytest.raises(ValueError):
            check_subset([1, 1], 5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            check_subset([5], 5)
        with pytest.raises(ValueError):
            check_subset([-1], 5)

    def test_empty(self):
        assert check_subset([], 5) == ()


class TestCheckPositiveInt:
    def test_valid(self):
        assert check_positive_int(3) == 3

    def test_minimum(self):
        assert check_positive_int(0, minimum=0) == 0
        with pytest.raises(ValueError):
            check_positive_int(0, minimum=1)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            check_positive_int(2.5)

    def test_integral_float_accepted(self):
        assert check_positive_int(4.0) == 4
