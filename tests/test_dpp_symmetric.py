"""Tests for SymmetricDPP / SymmetricKDPP against brute-force ground truth."""

import numpy as np
import pytest

from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import random_low_rank_ensemble, random_psd_ensemble


class TestSymmetricDPP:
    def test_partition_function(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        # det(I + L) equals the sum of det(L_S) over all subsets S
        from itertools import combinations

        brute = sum(
            np.linalg.det(small_psd[np.ix_(s, s)]) if s else 1.0
            for size in range(7)
            for s in combinations(range(6), size)
        )
        assert dpp.partition_function() == pytest.approx(np.linalg.det(np.eye(6) + small_psd))
        assert dpp.partition_function() == pytest.approx(brute, rel=1e-8)

    def test_counting_matches_enumeration(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        # brute force: sum of det(L_S) over supersets of T
        from itertools import combinations

        for T in [(), (0,), (1, 3), (0, 2, 5)]:
            total = 0.0
            for size in range(6 + 1):
                for S in combinations(range(6), size):
                    if set(T).issubset(S):
                        idx = list(S)
                        total += np.linalg.det(small_psd[np.ix_(idx, idx)]) if idx else 1.0
            assert dpp.counting(T) == pytest.approx(total, rel=1e-7)

    def test_marginal_vector_matches_exact(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        exact = exact_dpp_distribution(small_psd)
        assert np.allclose(dpp.marginal_vector(), exact.marginal_vector(), atol=1e-8)

    def test_conditional_marginals_match_exact(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        exact = exact_dpp_distribution(small_psd)
        given = (2,)
        mine = dpp.marginal_vector(given)
        theirs_inner = exact.condition(given).marginal_vector()
        # exact.condition relabels; rebuild the full-length vector
        full = np.ones(6)
        labels = exact.condition(given).ground_labels
        for local, label in enumerate(labels):
            full[label] = theirs_inner[local]
        assert np.allclose(mine, full, atol=1e-8)

    def test_condition_preserves_distribution(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        conditioned = dpp.condition((1, 4))
        exact_cond = exact_dpp_distribution(small_psd).condition((1, 4))
        mine = conditioned.to_explicit()
        assert mine.total_variation(exact_cond) < 1e-8

    def test_cardinality_distribution_sums_to_one(self, small_psd):
        dist = SymmetricDPP(small_psd).cardinality_distribution()
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_cardinality_distribution_matches_exact(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        exact = exact_dpp_distribution(small_psd)
        sizes = np.zeros(7)
        for subset, prob in exact.items():
            sizes[len(subset)] += prob
        assert np.allclose(dpp.cardinality_distribution(), sizes, atol=1e-8)

    def test_expected_size_equals_trace_of_kernel(self, small_psd):
        dpp = SymmetricDPP(small_psd)
        assert dpp.expected_size() == pytest.approx(np.trace(dpp.kernel), rel=1e-8)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            SymmetricDPP(np.diag([1.0, -1.0]))

    def test_ground_labels_after_conditioning(self, small_psd):
        dpp = SymmetricDPP(small_psd).condition((0, 3))
        assert dpp.ground_labels == (1, 2, 4, 5)

    def test_restrict_to_size(self, small_psd):
        kdpp = SymmetricDPP(small_psd).restrict_to_size(3)
        assert isinstance(kdpp, SymmetricKDPP)
        assert kdpp.k == 3
        # a factor-only kernel restricts on its factor, keeping its labels
        child = SymmetricDPP(small_psd).condition((0,)).restrict_to_size(2)
        assert child.L is None and child.ground_labels == (1, 2, 3, 4, 5)
        exact = exact_kdpp_distribution(small_psd, 3).condition((0,))
        assert child.to_explicit().total_variation(exact) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_marginals_within_dropped_spectrum_of_exact(self, seed):
        # a dense kernel's oracles read its rank-revealing factor, which drops
        # eigenvalues below 1e-12·λmax; each marginal moves by at most that
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        lam = np.logspace(-10, 3, 80)
        exact = (Q * Q) @ (lam / (1.0 + lam))     # diag(K) from the known eigenpairs
        marginals = SymmetricDPP((Q * lam) @ Q.T).marginal_vector()
        assert np.abs(marginals - exact).max() <= 1e-12 * lam.max()


class TestSymmetricKDPP:
    def test_counting_empty_is_partition_function(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        total = sum(
            np.linalg.det(small_psd[np.ix_(s, s)]) for s in all_subsets_of_size(6, 3)
        )
        assert kdpp.counting(()) == pytest.approx(total, rel=1e-8)

    def test_counting_conditional_matches_enumeration(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        T = (1, 4)
        total = sum(
            np.linalg.det(small_psd[np.ix_(s, s)])
            for s in all_subsets_of_size(6, 3)
            if set(T).issubset(s)
        )
        assert kdpp.counting(T) == pytest.approx(total, rel=1e-7)

    def test_counting_full_subset_is_minor(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        S = (0, 2, 5)
        assert kdpp.counting(S) == pytest.approx(np.linalg.det(small_psd[np.ix_(S, S)]))

    def test_counting_oversized_subset_is_zero(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 2)
        assert kdpp.counting((0, 1, 2)) == 0.0

    def test_marginals_match_exact(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        exact = exact_kdpp_distribution(small_psd, 3)
        assert np.allclose(kdpp.marginal_vector(), exact.marginal_vector(), atol=1e-8)

    def test_marginals_sum_to_k(self, small_psd):
        for k in (1, 2, 3, 4):
            kdpp = SymmetricKDPP(small_psd, k)
            assert kdpp.marginal_vector().sum() == pytest.approx(k, rel=1e-6)

    def test_conditional_marginals_match_exact(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        exact = exact_kdpp_distribution(small_psd, 3)
        given = (5,)
        mine = kdpp.marginal_vector(given)
        cond = exact.condition(given)
        full = np.ones(6)
        for local, label in enumerate(cond.ground_labels):
            full[label] = cond.marginal_vector()[local]
        assert np.allclose(mine, full, atol=1e-7)

    def test_joint_marginals_batch_match_exact(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        exact = exact_kdpp_distribution(small_psd, 3)
        subsets = [(0, 1), (2, 4), (1, 5)]
        z = exact.counting(())
        batch = kdpp.joint_marginals_batch(subsets)
        for subset, value in zip(subsets, batch):
            assert value == pytest.approx(exact.counting(subset) / z, abs=1e-9)

    def test_condition_matches_exact(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3).condition((2,))
        exact = exact_kdpp_distribution(small_psd, 3).condition((2,))
        assert kdpp.k == 2
        assert kdpp.to_explicit().total_variation(exact) < 1e-8

    def test_k_larger_than_rank_raises(self):
        L = random_low_rank_ensemble(6, rank=2, seed=7)
        with pytest.raises(ValueError):
            SymmetricKDPP(L, 4)

    def test_k_exceeding_n_raises(self, small_psd):
        with pytest.raises(ValueError):
            SymmetricKDPP(small_psd, 7)

    def test_unnormalized_wrong_size_zero(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 3)
        assert kdpp.unnormalized((0, 1)) == 0.0

    def test_cardinality_distribution_is_point_mass(self, small_psd):
        kdpp = SymmetricKDPP(small_psd, 2)
        dist = kdpp.cardinality_distribution()
        assert dist[2] == pytest.approx(1.0)
        assert dist.sum() == pytest.approx(1.0)
