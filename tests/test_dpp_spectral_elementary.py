"""Tests for the sequential HKPV spectral samplers and ESP-based marginals."""

import numpy as np
import pytest

import repro.dpp.elementary
from repro import serve
from repro.dpp.elementary import (
    dpp_size_distribution,
    kdpp_marginals_from_factor,
    leave_one_out_esp,
)
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.spectral import (
    sample_dpp_spectral,
    sample_kdpp_spectral,
    select_kdpp_eigenvectors,
)
from repro.dpp.symmetric import SymmetricKDPP
from repro.linalg.batch import psd_factor
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import random_psd_ensemble


def reference_leave_one_out_esp(values, order):
    """The per-``j`` loop the stacked call replaced, kept as its reference."""
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.size
    if order < 0 or order > n - 1:
        return np.zeros(n)
    out = np.empty(n, dtype=float)
    for j in range(n):
        rest = np.delete(vals, j)
        out[j] = elementary_symmetric_polynomials(rest, max_order=order)[order]
    return out


def factor_marginals(L, k):
    """Marginals through the factor-space routine, from ``psd_factor(L)``."""
    B = psd_factor(L)
    s, V = np.linalg.eigh(B.T @ B)
    return kdpp_marginals_from_factor(np.clip(s, 0.0, None), B @ V, k)


class TestElementary:
    def test_size_distribution_matches_exact(self, small_psd):
        rotation = np.array([[1.0, -2.0], [2.0, 1.0]])  # eigenvalues 1 ± 2i
        for L in (small_psd, rotation):
            sizes = dpp_size_distribution(L)
            exact = exact_dpp_distribution(L)
            expected = np.zeros(L.shape[0] + 1)
            for subset, prob in exact.items():
                expected[len(subset)] += prob
            assert np.allclose(sizes, expected, atol=1e-8)

    def test_kdpp_normalization(self, small_psd):
        for k in range(7):
            expected = sum(
                np.linalg.det(small_psd[np.ix_(s, s)]) if s else 1.0
                for s in all_subsets_of_size(6, k)
            )
            assert SymmetricKDPP(small_psd, k).partition_function() == pytest.approx(expected, rel=1e-7)

    def test_leave_one_out_esp(self, rng):
        for n in (1, 2, 7, 200):
            values = rng.exponential(size=n)
            for order in (0, 1, n - 1, n):
                loo = leave_one_out_esp(values, order)
                assert np.array_equal(loo, reference_leave_one_out_esp(values, order))
            assert not np.any(leave_one_out_esp(values, n))
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(leave_one_out_esp(values, 2), [26.0, 19.0, 14.0, 11.0])

    def test_theorem10_samples_match_reference_loop(self, monkeypatch):
        # n = 200 is beyond brute force: hold the served parallel sampler to
        # the per-j loop instead, seed for seed, on an in-process backend so
        # the patched loop is the one that runs
        reference_calls = []

        def reference(values, order):
            reference_calls.append(order)
            return reference_leave_one_out_esp(values, order)

        for seed in (0, 1, 2):
            L = random_psd_ensemble(200, rank=60, seed=seed)
            with serve(L) as session:
                fast = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
            with monkeypatch.context() as patch:
                patch.setattr(repro.dpp.elementary, "leave_one_out_esp", reference)
                with serve(L) as session:
                    slow = session.sample(k=10, method="parallel", seed=seed, backend="vectorized")
            assert fast.subset == slow.subset
        assert reference_calls

    def test_kdpp_marginals_spectral_match_exact(self, small_psd, small_low_rank_psd):
        # full rank (r = n = 6) and a rank-4 factor of a 7x7 ensemble
        for L, orders in ((small_psd, (1, 2, 3, 4, 5)), (small_low_rank_psd, (1, 2, 3, 4))):
            for k in orders:
                marginals = factor_marginals(L, k)
                exact = exact_kdpp_distribution(L, k).marginal_vector()
                assert np.allclose(marginals, exact, atol=1e-8)
                assert marginals.sum() == pytest.approx(k)

    def test_kdpp_marginals_edge_cases(self, small_psd, small_low_rank_psd):
        assert np.allclose(factor_marginals(small_psd, 0), np.zeros(6))
        assert np.allclose(factor_marginals(small_psd, 6), np.ones(6))
        with pytest.raises(ValueError, match="zero partition function"):
            factor_marginals(small_low_rank_psd, 5)  # k above the rank
        with pytest.raises(ValueError):
            factor_marginals(small_psd, 7)


class TestSpectralSamplers:
    def test_kdpp_sample_has_correct_size(self, small_psd, rng):
        for _ in range(10):
            sample = sample_kdpp_spectral(small_psd, 3, rng)
            assert len(sample) == 3
            assert len(set(sample)) == 3

    def test_kdpp_sampler_distribution(self, small_psd):
        # Empirical frequencies of a small k-DPP should be close to exact.
        exact = exact_kdpp_distribution(small_psd, 2)
        rng = np.random.default_rng(0)
        counts = {}
        num_samples = 4000
        for _ in range(num_samples):
            s = sample_kdpp_spectral(small_psd, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / num_samples - exact.probability_vector([s])[0])
            for s in exact.support
        )
        assert tv < 0.06

    def test_dpp_sampler_size_distribution(self, small_low_rank_psd):
        rng = np.random.default_rng(1)
        expected = dpp_size_distribution(small_low_rank_psd)
        sizes = np.zeros(8)
        num_samples = 3000
        for _ in range(num_samples):
            s = sample_dpp_spectral(small_low_rank_psd, rng)
            sizes[len(s)] += 1
        sizes /= num_samples
        assert np.abs(sizes - expected).max() < 0.05

    def test_select_kdpp_eigenvectors_count(self, small_psd, rng):
        eigenvalues = np.linalg.eigvalsh(small_psd)
        for k in (1, 3, 5):
            mask = select_kdpp_eigenvectors(eigenvalues, k, rng)
            assert mask.sum() == k

    def test_select_kdpp_eigenvectors_invalid_k(self, small_psd, rng):
        eigenvalues = np.linalg.eigvalsh(small_psd)
        with pytest.raises(ValueError):
            select_kdpp_eigenvectors(eigenvalues, 10, rng)

    def test_sampler_charges_sequential_depth(self, small_psd):
        tracker = Tracker()
        with use_tracker(tracker):
            sample_kdpp_spectral(small_psd, 4, seed=3)
        # eigendecomposition round + 4 sequential HKPV steps
        assert tracker.rounds >= 5

    def test_kdpp_k_zero(self, small_psd):
        assert sample_kdpp_spectral(small_psd, 0, seed=0) == ()

    def test_rank_deficient_rejects_large_k(self):
        L = random_psd_ensemble(6, rank=2, seed=9)
        eigenvalues = np.clip(np.linalg.eigvalsh(L), 0.0, None)
        with pytest.raises(ValueError):
            select_kdpp_eigenvectors(eigenvalues, 5, np.random.default_rng(0))


class TestPhaseTwoDegenerateBasis:
    """Regression: a near-axis-aligned eigenbasis used to crash phase 2.

    With an almost-diagonal ensemble, projecting out the selected element
    leaves a leading near-zero column; unpivoted QR then attributes the
    surviving dimension's mass to the upper triangle of ``r`` and the
    threshold dropped a real dimension ("ran out of probability mass").
    """

    DEGENERATE = np.array([[5.00010000e-02, 1.06939813e-11],
                           [1.06939813e-11, 1.05000100e+00]])

    def test_full_cardinality_sample_succeeds(self):
        for seed in range(8):
            assert sample_kdpp_spectral(self.DEGENERATE, 2, seed=seed) == (0, 1)

    def test_larger_near_diagonal_ensemble(self):
        L = np.diag([0.05, 0.5, 1.05, 2.0]) + 1e-11
        for seed in range(8):
            subset = sample_kdpp_spectral(L, 4, seed=seed)
            assert subset == (0, 1, 2, 3)
