"""Tests for NonsymmetricDPP / NonsymmetricKDPP against brute force."""

import itertools

import numpy as np
import pytest

import repro
from repro.core.nonsymmetric import sample_nonsymmetric_dpp_parallel
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.likelihood import all_principal_minor_sums
from repro.dpp.nonsymmetric import NonsymmetricDPP, NonsymmetricKDPP
from repro.dpp.partition import InterpolationGridTooLarge
from repro.distributions.negative_corr import negative_correlation_violations
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import random_npsd_ensemble


class TestNonsymmetricDPP:
    def test_all_principal_minors_nonnegative(self, small_npsd):
        # [Gar+19, Lemma 1]: nPSD matrices have nonnegative principal minors
        from itertools import combinations

        for size in range(7):
            for s in combinations(range(6), size):
                idx = list(s)
                minor = np.linalg.det(small_npsd[np.ix_(idx, idx)]) if idx else 1.0
                assert minor >= -1e-9

    def test_partition_function(self, small_npsd):
        dpp = NonsymmetricDPP(small_npsd)
        assert dpp.partition_function() == pytest.approx(np.linalg.det(np.eye(6) + small_npsd))

    def test_counting_matches_enumeration(self, small_npsd):
        dpp = NonsymmetricDPP(small_npsd)
        from itertools import combinations

        for T in [(), (0,), (2, 4)]:
            total = 0.0
            for size in range(7):
                for S in combinations(range(6), size):
                    if set(T).issubset(S):
                        idx = list(S)
                        total += np.linalg.det(small_npsd[np.ix_(idx, idx)]) if idx else 1.0
            assert dpp.counting(T) == pytest.approx(total, rel=1e-7)

    def test_marginal_vector_matches_exact(self, small_npsd):
        dpp = NonsymmetricDPP(small_npsd)
        exact = exact_dpp_distribution(small_npsd)
        assert np.allclose(dpp.marginal_vector(), exact.marginal_vector(), atol=1e-7)

    def test_condition_matches_exact(self, small_npsd):
        dpp = NonsymmetricDPP(small_npsd)
        mine = dpp.condition((1,)).to_explicit()
        theirs = exact_dpp_distribution(small_npsd).condition((1,))
        assert mine.total_variation(theirs) < 1e-7

    def test_cardinality_distribution(self, small_npsd):
        dpp = NonsymmetricDPP(small_npsd)
        exact = exact_dpp_distribution(small_npsd)
        sizes = np.zeros(7)
        for subset, prob in exact.items():
            sizes[len(subset)] += prob
        assert np.allclose(dpp.cardinality_distribution(), sizes, atol=1e-7)

    def test_rejects_non_npsd(self):
        with pytest.raises(ValueError):
            NonsymmetricDPP(np.diag([-2.0, 1.0]))

    def test_can_have_positive_correlations(self):
        # The paper motivates nonsymmetric DPPs by their ability to model
        # positive correlations, impossible for symmetric DPPs (Lemma 16).
        L = np.array([[0.5, 1.0], [-1.0, 0.5]])
        dpp = NonsymmetricDPP(L)
        exact = dpp.to_explicit()
        violations = negative_correlation_violations(exact, max_order=2)
        assert violations, "expected a positive correlation for this kernel"


class TestNonsymmetricKDPP:
    def test_partition_function_matches_enumeration(self, small_npsd):
        kdpp = NonsymmetricKDPP(small_npsd, 3)
        total = sum(
            np.linalg.det(small_npsd[np.ix_(s, s)]) for s in all_subsets_of_size(6, 3)
        )
        assert kdpp.partition_function() == pytest.approx(total, rel=1e-7)

    def test_counting_conditional(self, small_npsd):
        kdpp = NonsymmetricKDPP(small_npsd, 3)
        T = (0, 5)
        total = sum(
            np.linalg.det(small_npsd[np.ix_(s, s)])
            for s in all_subsets_of_size(6, 3)
            if set(T).issubset(s)
        )
        assert kdpp.counting(T) == pytest.approx(total, rel=1e-6, abs=1e-9)

    def test_marginals_match_exact(self, small_npsd):
        kdpp = NonsymmetricKDPP(small_npsd, 3)
        exact = exact_kdpp_distribution(small_npsd, 3)
        assert np.allclose(kdpp.marginal_vector(), exact.marginal_vector(), atol=1e-7)

    def test_conditional_marginals_match_exact(self, small_npsd):
        kdpp = NonsymmetricKDPP(small_npsd, 3)
        exact = exact_kdpp_distribution(small_npsd, 3)
        given = (4,)
        mine = kdpp.marginal_vector(given)
        cond = exact.condition(given)
        full = np.ones(6)
        for local, label in enumerate(cond.ground_labels):
            full[label] = cond.marginal_vector()[local]
        assert np.allclose(mine, full, atol=1e-6)

    def test_joint_marginals_batch(self, small_npsd):
        kdpp = NonsymmetricKDPP(small_npsd, 3)
        exact = exact_kdpp_distribution(small_npsd, 3)
        z = exact.counting(())
        subsets = [(0, 1), (3, 5)]
        values = kdpp.joint_marginals_batch(subsets)
        for subset, value in zip(subsets, values):
            assert value == pytest.approx(exact.counting(subset) / z, abs=1e-8)

    def test_condition_matches_exact(self, small_npsd):
        mine = NonsymmetricKDPP(small_npsd, 3).condition((0,)).to_explicit()
        theirs = exact_kdpp_distribution(small_npsd, 3).condition((0,))
        assert mine.total_variation(theirs) < 1e-7

    def test_condition_too_many_raises(self, small_npsd):
        with pytest.raises(ValueError):
            NonsymmetricKDPP(small_npsd, 2).condition((0, 1, 2))

    def test_marginals_sum_to_k(self, small_npsd):
        for k in (1, 2, 3):
            kdpp = NonsymmetricKDPP(small_npsd, k)
            assert kdpp.marginal_vector().sum() == pytest.approx(k, rel=1e-5)


def _npsd_kernel(rng, n):
    """An nPSD kernel of random shape: a symmetric part of random rank, a skew
    part scaled by 10^U(-1, 0.7), the whole scaled by 10^U(-3, 3)."""
    rank = int(rng.integers(1, n + 1))
    B = rng.standard_normal((n, rank))
    G = rng.standard_normal((n, n))
    skew = 10.0 ** rng.uniform(-1, 0.7)
    return 10.0 ** rng.uniform(-3, 3) * (B @ B.T / rank + skew * (G - G.T) / 2)


def _brute_force_counts(L, k, queries, given=()):
    """``Σ det(L_S)`` over the k-sets ``S ⊇ given ∪ T`` for each query ``T``,
    from one stacked determinant call over every k-set."""
    rows = np.array(list(itertools.combinations(range(len(L)), k)), dtype=int).reshape(-1, k)
    dets = np.linalg.det(L[rows[:, :, None], rows[:, None, :]])
    return np.array([dets[np.isin(rows, given + T).sum(axis=1) == len(given) + len(T)].sum()
                     for T in queries])


def _schur(L, given):
    """Schur complement of ``L`` on the items ``given``: the kernel whose
    ``j``-th minor sum is ``Σ_{S ⊇ given, |S| = |given| + j} det(L_S) / det(L_given)``."""
    rest = np.setdiff1d(np.arange(len(L)), given)
    return L[np.ix_(rest, rest)] - L[np.ix_(rest, given)] @ np.linalg.solve(
        L[np.ix_(given, given)], L[np.ix_(given, rest)])


def _relative_errors(got, exact):
    """Errors relative to the exact count (to the normalizer, ``exact[0]``,
    where the exact count is 0)."""
    return np.abs(got - exact) / np.where(exact > 0, exact, exact[0])


class TestNonsymmetricExactness:
    """Counts stay exact on random, strongly non-normal and larger kernels,
    at the root and in conditioned children."""

    def test_random_sweep_matches_brute_force(self):
        # n 4-10, random symmetric rank, skew and scale; normalizer, every
        # singleton and one pair
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(4, 11))
            L = _npsd_kernel(rng, n)
            k = int(rng.integers(1, n + 1))
            kdpp = NonsymmetricKDPP(L, k)
            queries = [(i,) for i in range(n)] + [(0, 1)]
            exact = _brute_force_counts(L, k, [()] + queries)
            got = np.concatenate([[kdpp.partition_function()], kdpp.counting_batch(queries)])
            worst = max(worst, _relative_errors(got, exact).max())
        assert worst <= 1e-10

    def test_children_match_brute_force_at_every_depth(self):
        L = random_npsd_ensemble(10, skew_scale=3.0, rank=3, seed=1)
        k = 5
        chain = (7, 2, 9, 4)
        dist = NonsymmetricKDPP(L, k)
        worst = 0.0
        for depth, item in enumerate(chain, start=1):
            dist = dist.condition((dist.ground_labels.index(item),))
            given = chain[:depth]
            det_given = np.linalg.det(L[np.ix_(given, given)])
            queries = [(i,) for i in range(dist.n)] + [(0, 1)]
            in_root = [tuple(dist.ground_labels[i] for i in T) for T in queries]
            exact = _brute_force_counts(L, k, [()] + in_root, given) / det_given
            got = np.concatenate([[dist.partition_function()], dist.counting_batch(queries)])
            worst = max(worst, _relative_errors(got, exact).max())
        assert worst <= 1e-10

    def test_identities_at_n100(self):
        L = random_npsd_ensemble(100, seed=0)
        root = NonsymmetricKDPP(L, 10)
        rng = np.random.default_rng(1)
        for given in ((), (3, 40, 77)):
            dist = root.condition(given)
            assert dist.marginal_vector().sum() == pytest.approx(dist.k, abs=1e-10)
            # every set containing T has k - |T| one-item extensions of T inside it
            T = (5,)
            extensions = [tuple(sorted(T + (i,))) for i in range(dist.n) if i not in T]
            assert dist.counting_batch(extensions).sum() == pytest.approx(
                (dist.k - len(T)) * dist.counting(T), rel=1e-10)
            # at depth k - 1 a count is a direct sum of determinants
            det_given = np.linalg.det(L[np.ix_(given, given)]) if given else 1.0
            sets = [tuple(sorted(rng.choice(dist.n, size=dist.k - 1, replace=False).tolist()))
                    for _ in range(4)]
            for T in sets:
                top = list(given) + [dist.ground_labels[i] for i in T]
                direct = sum(np.linalg.det(L[np.ix_(top + [j], top + [j])])
                             for j in range(100) if j not in top) / det_given
                assert dist.counting(T) == pytest.approx(direct, rel=1e-11)

    def test_small_scale_at_large_k(self):
        # at n = 200, k = 110 and scale 1e-3 the radius is ~1222, so ρ^k ~
        # 1e339 leaves the float range while the count, ~1e-272, does not;
        # log-space weights keep it exact
        L = 1e-3 * np.eye(200)
        assert NonsymmetricKDPP(L, 110).partition_function() == pytest.approx(
            all_principal_minor_sums(L)[110], rel=1e-10)
        # ρ^30 ~ 1e323 at n = 40, k = 30, scale 5e-11; a child on 20 items
        L = 5e-11 * random_npsd_ensemble(40, seed=4)
        root = NonsymmetricKDPP(L, 30)
        assert root.partition_function() == pytest.approx(
            all_principal_minor_sums(L)[30], rel=1e-10)
        given = tuple(range(0, 40, 2))
        child = root.condition(given)
        assert child.partition_function() == pytest.approx(
            all_principal_minor_sums(_schur(L, given))[10], rel=1e-10)
        assert child.marginal_vector().sum() == pytest.approx(10, abs=1e-10)

    def test_deep_children_at_large_k_share_of_n(self):
        # deep below a root whose k is half of n the root's radius no longer
        # suits a child, which re-roots on its Schur complement; every
        # normalizer along a sampler-like chain stays exact
        L = random_npsd_ensemble(80, seed=0)
        k = 40
        order = np.random.default_rng(0).permutation(80).tolist()
        dist = NonsymmetricKDPP(L, k)
        given = []
        for start in range(0, k - 4, 4):
            batch = order[start:start + 4]
            dist = dist.condition([dist.ground_labels.index(item) for item in batch])
            given = sorted(given + batch)
            assert dist.partition_function() == pytest.approx(
                all_principal_minor_sums(_schur(L, given))[k - len(given)], rel=1e-10)
            assert dist.marginal_vector().sum() == pytest.approx(dist.k, abs=1e-10)

    def test_size_ceiling_refused_before_allocating(self):
        # the tables of n = 407 need (n + 1) complex n x n matrices, over 1
        # GiB; the unconstrained sampler, direct or served, refuses before it
        # draws a cardinality, even one of 0 (nearly certain at this scale)
        with pytest.raises(InterpolationGridTooLarge, match=r"\(408,\) has 408 nodes"):
            NonsymmetricKDPP(np.eye(407), 3)
        L = 1e-9 * np.eye(407)
        with pytest.raises(InterpolationGridTooLarge, match=r"\(408,\) has 408 nodes"):
            sample_nonsymmetric_dpp_parallel(L, seed=0)
        with repro.serve(L, kind="nonsymmetric", registry=repro.KernelRegistry()) as session:
            with pytest.raises(InterpolationGridTooLarge, match=r"\(408,\) has 408 nodes"):
                session.sample(seed=0)
