"""Tests for Partition-DPPs (Definition 7) and their counting oracle."""

import itertools
import time

import numpy as np
import pytest

import repro.dpp.partition as partition_module
from repro.core.nonsymmetric import sample_nonsymmetric_kdpp_parallel
from repro.core.partition import sample_partition_dpp_parallel
from repro.dpp.exact import exact_partition_dpp_distribution
from repro.dpp.partition import InterpolationGridTooLarge, PartitionDPP
from repro.service import KernelRegistry, serve
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import clustered_ensemble, random_npsd_ensemble, random_psd_ensemble


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

    def test_one_table_build_per_sample(self, monkeypatch):
        # conditioned children read their root's tables: a Theorem-9 and a
        # Theorem-8 sample each build them once, for the root
        builds = []
        build = partition_module.torus_tables
        monkeypatch.setattr(partition_module, "torus_tables",
                            lambda *args: builds.append(len(args[0])) or build(*args))
        L, parts = clustered_ensemble([10, 10], within=0.6, across=0.05, scale=1.5, seed=0)
        sample_partition_dpp_parallel(L, parts, (3, 3), seed=0, backend="vectorized")
        sample_nonsymmetric_kdpp_parallel(random_npsd_ensemble(30, seed=0), 6, seed=0,
                                          backend="vectorized")
        assert builds == [20, 30]

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
        # 4 parts of 25: 26^4 = 456976 nodes of complex 100 x 100 matrices, 73.1 GB
        L = random_psd_ensemble(100, seed=0)
        parts = [list(range(i, i + 25)) for i in range(0, 100, 25)]
        start = time.perf_counter()
        with pytest.raises(InterpolationGridTooLarge,
                           match=r"\(26, 26, 26, 26\) has 456976 nodes.* 73116160000 bytes"):
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


def _quota_sets(parts, counts):
    """Every set meeting the quotas, one sorted-by-part row each."""
    rows = np.zeros((1, 0), dtype=int)
    for part, count in zip(parts, counts):
        combos = list(itertools.combinations(part, count))
        block = np.array(combos, dtype=int).reshape(len(combos), count)
        rows = np.concatenate([np.repeat(rows, len(block), axis=0),
                               np.tile(block, (len(rows), 1))], axis=1)
    return rows


def _brute_force_count(L, parts, counts, given=()):
    """``Σ det(L_S)`` over the quota-meeting ``S ⊇ given``, as one stacked call."""
    rows = _quota_sets(parts, counts)
    rows = rows[np.isin(rows, given).sum(axis=1) == len(given)]
    return float(np.linalg.det(L[rows[:, :, None], rows[:, None, :]]).sum())


def _relative_errors(pdpp, L, parts, counts):
    """Error of the normalizer and of every singleton count, relative to the
    exact count (to the normalizer where the exact count is 0)."""
    exact = np.array([_brute_force_count(L, parts, counts)]
                     + [_brute_force_count(L, parts, counts, (i,)) for i in range(len(L))])
    got = np.concatenate([[pdpp.partition_function()],
                          pdpp.counting_batch([(i,) for i in range(len(L))])])
    return np.abs(got - exact) / np.where(exact > 0, exact, exact[0])


_HALVES = [list(range(6)), list(range(6, 12))]


class TestTorusExactness:
    """Counts stay exact beyond tiny parts, checked against brute force and
    against the identities every counting oracle must satisfy."""

    def test_normalizer_at_parts_of_14(self):
        L, parts = clustered_ensemble([14, 14], within=0.6, across=0.05, scale=1.5, seed=0)
        exact = _brute_force_count(L, parts, (3, 3))  # all 132,496 sets
        assert PartitionDPP(L, parts, (3, 3)).partition_function() == pytest.approx(
            exact, rel=1e-12)

    @pytest.mark.parametrize("sizes, counts", [([20, 20], (4, 4)), ([10, 10, 10], (2, 2, 2))],
                             ids=["20-20", "10-10-10"])
    def test_marginal_and_chain_identities(self, sizes, counts):
        L, parts = clustered_ensemble(sizes, within=0.6, across=0.05, scale=1.5, seed=0)
        pdpp = PartitionDPP(L, parts, counts)
        marginals = pdpp.marginal_vector()
        for part, count in zip(parts, counts):
            assert marginals[part].sum() == pytest.approx(count, abs=1e-10)
        # every set containing T has k - |T| one-item extensions of T inside it
        T = (parts[0][0],)
        extensions = [tuple(sorted(T + (i,))) for i in range(pdpp.n) if i not in T]
        assert pdpp.counting_batch(extensions).sum() == pytest.approx(
            (pdpp.k - len(T)) * pdpp.counting(T), rel=1e-10)

    @pytest.mark.parametrize("L, counts", [
        (1e-3 * random_psd_ensemble(12, seed=1), (2, 2)),
        (30.0 * random_psd_ensemble(12, seed=1), (2, 2)),
        (1e3 * random_psd_ensemble(12, seed=1), (2, 2)),
        (np.diag([100.0] * 6 + [0.01] * 6), (1, 4)),
    ], ids=["scale-1e-3", "scale-30", "scale-1e3", "unequal-parts"])
    def test_scaled_kernels_match_brute_force(self, L, counts):
        pdpp = PartitionDPP(L, _HALVES, counts)
        assert _relative_errors(pdpp, L, _HALVES, counts).max() <= 1e-12

    def test_served_sample_at_large_scale(self):
        L = 1e3 * random_psd_ensemble(12, seed=1)
        with serve(L, kind="partition", parts=_HALVES, counts=(2, 2),
                   registry=KernelRegistry(), backend="vectorized") as session:
            subset = session.sample(seed=1).subset
        assert [sum(1 for i in subset if i in part) for part in _HALVES] == [2, 2]

    def test_random_sweep_matches_brute_force(self):
        # n <= 10, up to 3 parts, random rank and counts, per-part scale 10^U(-3, 3)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(4, 11))
            r = int(rng.integers(1, 4))
            cuts = np.sort(rng.choice(np.arange(1, n), size=r - 1, replace=False))
            parts = [sorted(p.tolist()) for p in np.split(rng.permutation(n), cuts)]
            rank = int(rng.integers(1, n + 1))
            B = rng.standard_normal((n, rank))
            for part, scale in zip(parts, 10.0 ** rng.uniform(-3, 3, size=r)):
                B[part] *= np.sqrt(scale)
            L = B @ B.T
            chosen = rng.choice(n, size=int(rng.integers(1, rank + 1)), replace=False)
            counts = [int(np.isin(part, chosen).sum()) for part in parts]
            pdpp = PartitionDPP(L, parts, counts)
            worst = max(worst, _relative_errors(pdpp, L, parts, counts).max())
        assert worst <= 1e-6

    def test_children_match_brute_force_at_depths_1_to_5(self):
        L, parts = clustered_ensemble([14, 14], within=0.6, across=0.05, scale=1.5, seed=0)
        rows = _quota_sets(parts, (3, 3))                     # all 132,496 sets
        dets = np.linalg.det(L[rows[:, :, None], rows[:, None, :]])
        member = np.zeros((len(rows), len(L)), dtype=bool)
        member[np.arange(len(rows))[:, None], rows] = True
        chain = (parts[0][0], parts[1][0], parts[0][1], parts[1][1], parts[0][2])
        dist = PartitionDPP(L, parts, (3, 3))
        worst = 0.0
        for depth, item in enumerate(chain, start=1):
            dist = dist.condition((dist.ground_labels.index(item),))
            given = list(chain[:depth])
            inside = member[:, given].all(axis=1)
            # the child's counts are in units of det(L_given), as a Schur complement's
            exact = np.concatenate([[dets[inside].sum()],
                                    member[inside][:, dist.ground_labels].T @ dets[inside]])
            exact /= np.linalg.det(L[np.ix_(given, given)])
            got = np.concatenate([[dist.partition_function()],
                                  dist.counting_batch([(i,) for i in range(dist.n)])])
            worst = max(worst, (np.abs(got - exact) / np.where(exact > 0, exact, exact[0])).max())
        assert worst <= 1e-10
