"""Tests for Partition-DPPs (Definition 7) and their interpolation oracle."""

import time

import numpy as np
import pytest

from repro.dpp.exact import exact_partition_dpp_distribution
from repro.dpp.partition import InterpolationGridTooLarge, PartitionDPP
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import clustered_ensemble, random_psd_ensemble


@pytest.fixture
def partition_setup(clustered):
    L, parts = clustered
    counts = [2, 1]
    return L, parts, counts


class TestPartitionDPPBasics:
    def test_partition_function_matches_enumeration(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        exact_total = 0.0
        part_of = {i: idx for idx, part in enumerate(parts) for i in part}
        for s in all_subsets_of_size(8, 3):
            tallies = [0, 0]
            for item in s:
                tallies[part_of[item]] += 1
            if tallies == counts:
                exact_total += np.linalg.det(L[np.ix_(s, s)])
        assert pdpp.partition_function() == pytest.approx(exact_total, rel=1e-5)

    def test_unnormalized_zero_when_constraints_violated(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        # 3 elements from part 0, 0 from part 1 violates (2, 1)
        subset = tuple(parts[0][:3])
        assert pdpp.unnormalized(subset) == 0.0

    def test_unnormalized_positive_when_satisfied(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        subset = tuple(parts[0][:2]) + (parts[1][0],)
        assert pdpp.unnormalized(subset) > 0.0

    def test_counting_conditional_matches_enumeration(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        part_of = {i: idx for idx, part in enumerate(parts) for i in part}
        T = (parts[0][0],)
        total = 0.0
        for s in all_subsets_of_size(8, 3):
            if not set(T).issubset(s):
                continue
            tallies = [0, 0]
            for item in s:
                tallies[part_of[item]] += 1
            if tallies == counts:
                total += np.linalg.det(L[np.ix_(s, s)])
        assert pdpp.counting(T) == pytest.approx(total, rel=1e-5)

    def test_counting_zero_when_constraints_impossible(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        # conditioning on two elements of part 1 exceeds its count of 1
        T = tuple(parts[1][:2])
        assert pdpp.counting(T) == 0.0

    def test_marginals_match_exact(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        exact = exact_partition_dpp_distribution(L, parts, counts)
        assert np.allclose(pdpp.marginal_vector(), exact.marginal_vector(), atol=1e-6)

    def test_marginals_sum_to_k(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        assert pdpp.marginal_vector().sum() == pytest.approx(sum(counts), rel=1e-5)

    def test_condition_matches_exact(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        element = parts[0][1]
        mine = pdpp.condition((element,)).to_explicit()
        theirs = exact_partition_dpp_distribution(L, parts, counts).condition((element,))
        assert mine.total_variation(theirs) < 1e-6

    def test_condition_updates_counts(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        conditioned = pdpp.condition((parts[1][0],))
        assert conditioned.counts == (2, 0)
        assert conditioned.k == 2

    def test_condition_violating_constraints_raises(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        with pytest.raises(ValueError):
            pdpp.condition(tuple(parts[1][:2]))

    def test_part_of(self, partition_setup):
        L, parts, counts = partition_setup
        pdpp = PartitionDPP(L, parts, counts)
        for idx, part in enumerate(parts):
            for element in part:
                assert pdpp.part_of(element) == idx


class TestPartitionDPPValidation:
    def test_parts_must_cover_ground_set(self, partition_setup):
        L, parts, counts = partition_setup
        with pytest.raises(ValueError):
            PartitionDPP(L, [parts[0]], [2])

    def test_counts_length_mismatch(self, partition_setup):
        L, parts, counts = partition_setup
        with pytest.raises(ValueError):
            PartitionDPP(L, parts, [1])

    def test_count_exceeding_part_size(self, partition_setup):
        L, parts, counts = partition_setup
        with pytest.raises(ValueError):
            PartitionDPP(L, parts, [5, 1])

    def test_requires_symmetric_psd(self, partition_setup):
        _, parts, counts = partition_setup
        with pytest.raises(ValueError):
            PartitionDPP(np.diag([1.0] * 7 + [-1.0]), parts, counts)

    def test_oversize_grid_refused_before_allocating(self):
        # 4 parts of 25: 26^4 = 456976 nodes of 100 x 100 determinants, 36.6 GB
        L = random_psd_ensemble(100, seed=0)
        parts = [list(range(i, i + 25)) for i in range(0, 100, 25)]
        start = time.perf_counter()
        with pytest.raises(InterpolationGridTooLarge,
                           match=r"\(26, 26, 26, 26\) has 456976 nodes.* 36558080000 bytes"):
            PartitionDPP(L, parts, [2, 2, 2, 2])
        assert time.perf_counter() - start < 1.0
        assert issubclass(InterpolationGridTooLarge, ValueError)

    def test_single_part_reduces_to_kdpp(self, clustered):
        # A Partition-DPP with one part is exactly a k-DPP.
        L, _ = clustered
        from repro.dpp.exact import exact_kdpp_distribution

        pdpp = PartitionDPP(L, [list(range(8))], [3])
        exact = exact_kdpp_distribution(L, 3)
        assert pdpp.to_explicit().total_variation(exact) < 1e-6

    def test_three_parts(self):
        L, parts = clustered_ensemble([3, 3, 2], seed=5)
        pdpp = PartitionDPP(L, parts, [1, 1, 1])
        exact = exact_partition_dpp_distribution(L, parts, [1, 1, 1])
        assert np.allclose(pdpp.marginal_vector(), exact.marginal_vector(), atol=1e-6)
