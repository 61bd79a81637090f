"""Tests for ensemble/kernel conversions and DPP likelihood helpers."""

import numpy as np
import pytest

from repro.dpp.kernels import (
    ensemble_to_kernel,
    kernel_to_ensemble,
    marginal_kernel_conditioned,
    validate_ensemble,
    validate_kernel,
)
from repro.dpp.likelihood import all_principal_minor_sums, dpp_log_unnormalized
from repro.dpp.exact import exact_dpp_distribution
from repro.dpp.symmetric import SymmetricDPP
from repro.linalg.determinant import principal_minor
from repro.workloads import random_npsd_ensemble, random_psd_ensemble


class TestKernelConversions:
    def test_roundtrip_L_K_L(self, small_psd):
        K = ensemble_to_kernel(small_psd)
        L_back = kernel_to_ensemble(K)
        assert np.allclose(L_back, small_psd, atol=1e-8)

    def test_kernel_eigenvalues_in_unit_interval(self, small_psd):
        K = ensemble_to_kernel(small_psd)
        eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eigs.min() >= -1e-10
        assert eigs.max() <= 1 + 1e-10

    def test_identity_relationship(self, small_psd):
        # K = I - (I + L)^{-1}
        K = ensemble_to_kernel(small_psd)
        expected = np.eye(6) - np.linalg.inv(np.eye(6) + small_psd)
        assert np.allclose(K, expected, atol=1e-10)

    def test_kernel_to_ensemble_singular_raises(self):
        K = np.eye(3)  # eigenvalue 1 -> no finite L
        with pytest.raises(ValueError):
            kernel_to_ensemble(K)

    def test_empty_matrices(self):
        empty = np.zeros((0, 0))
        assert ensemble_to_kernel(empty).shape == (0, 0)
        assert kernel_to_ensemble(empty).shape == (0, 0)

    def test_marginal_kernel_diag_are_marginals(self, small_psd):
        # K_ii = P[i in S] computed from brute force enumeration
        K = ensemble_to_kernel(small_psd)
        exact = exact_dpp_distribution(small_psd)
        marginals = exact.marginal_vector()
        assert np.allclose(np.diag(K), marginals, atol=1e-8)

    def test_marginal_kernel_conditioned(self, small_psd):
        K_cond, remaining = marginal_kernel_conditioned(small_psd, (1,))
        exact = exact_dpp_distribution(small_psd)
        conditioned = exact.condition((1,))
        assert np.allclose(np.diag(K_cond), conditioned.marginal_vector(), atol=1e-7)
        assert list(remaining) == [0, 2, 3, 4, 5]


class TestValidation:
    def test_validate_ensemble_psd(self, small_psd):
        validate_ensemble(small_psd, symmetric=True)

    def test_validate_ensemble_rejects_indefinite(self):
        with pytest.raises(ValueError):
            validate_ensemble(np.diag([1.0, -0.5]), symmetric=True)

    def test_validate_ensemble_rejects_asymmetric_when_symmetric_requested(self, small_npsd):
        with pytest.raises(ValueError):
            validate_ensemble(small_npsd, symmetric=True)

    def test_validate_ensemble_npsd(self, small_npsd):
        validate_ensemble(small_npsd, symmetric=False)

    def test_validate_ensemble_npsd_rejects(self):
        with pytest.raises(ValueError):
            validate_ensemble(np.diag([-3.0, 1.0]), symmetric=False)

    def test_validate_kernel(self, small_psd):
        validate_kernel(ensemble_to_kernel(small_psd))

    def test_validate_kernel_rejects_eigenvalue_above_one(self):
        with pytest.raises(ValueError):
            validate_kernel(np.diag([0.5, 1.5]))


class TestLikelihood:
    def test_unnormalized_is_principal_minor(self, small_psd):
        subset = (0, 2, 5)
        expected = np.linalg.det(small_psd[np.ix_(subset, subset)])
        assert principal_minor(small_psd, subset) == pytest.approx(expected)

    def test_log_unnormalized(self, small_psd):
        subset = (1, 3)
        assert dpp_log_unnormalized(small_psd, subset) == pytest.approx(
            np.log(np.linalg.det(small_psd[np.ix_(subset, subset)]))
        )

    def test_log_unnormalized_zero_minor(self):
        L = np.zeros((3, 3))
        assert dpp_log_unnormalized(L, (0, 1)) == -np.inf

    def test_sum_principal_minors_matches_brute_force(self):
        L = random_npsd_ensemble(5, seed=2)
        from itertools import combinations

        sums = all_principal_minor_sums(L)
        assert sums.shape == (6,)
        for order in range(6):
            expected = sum(
                np.linalg.det(L[np.ix_(s, s)]) if s else 1.0
                for s in combinations(range(5), order)
            )
            assert sums[order] == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_all_principal_minor_sums_consistent(self):
        # eigenvalues 1 ± 2i: the sums are [1, 2, 5], not the [1, 2, 1] of
        # the real parts
        rotation = np.array([[1.0, -2.0], [2.0, 1.0]])
        np.testing.assert_allclose(all_principal_minor_sums(rotation), [1.0, 2.0, 5.0])
        assert np.array_equal(all_principal_minor_sums(np.zeros((0, 0))), [1.0])

    def test_batched_joint_marginals_match_exact(self, small_psd):
        exact = exact_dpp_distribution(small_psd)
        for subsets in ([(0, 1), (2, 4), (3, 5)], [(0, 1), (2,), (3, 4, 5)]):
            batched = SymmetricDPP(small_psd).joint_marginals_batch(subsets)
            for subset, value in zip(subsets, batched):
                assert value == pytest.approx(exact.counting(subset), rel=1e-7)
