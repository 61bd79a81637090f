"""Tests for the sequential HKPV spectral samplers and ESP-based marginals."""

import numpy as np
import pytest

import repro.dpp.elementary
import repro.engine.backends
from repro import serve
from repro.dpp.elementary import kdpp_marginals_from_factor, leave_one_out_esp
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.spectral import (
    sample_dpp_spectral,
    sample_kdpp_spectral,
    select_kdpp_eigenvectors,
)
from repro.dpp.nonsymmetric import NonsymmetricDPP
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.linalg.batch import hkpv_projection_step, psd_factor
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.linalg.psd import random_orthogonal
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import random_psd_ensemble


def reference_select_kdpp_eigenvectors(eigenvalues, k, rng):
    """Phase 1 with the per-eigenvalue table loop it replaced, kept as its reference."""
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    E = np.zeros((k + 1, n + 1))
    E[0, :] = 1.0
    for m in range(1, n + 1):
        upper = min(k, m)
        E[1:upper + 1, m] = E[1:upper + 1, m - 1] + lam[m - 1] * E[0:upper, m - 1]
    include = np.zeros(n, dtype=bool)
    remaining = k
    for m in range(n, 0, -1):
        if remaining == 0:
            break
        if m == remaining:
            include[:m] = True
            break
        prob = lam[m - 1] * E[remaining - 1, m - 1] / E[remaining, m]
        if rng.random() < prob:
            include[m - 1] = True
            remaining -= 1
    return include


def reference_qr_projection_step(bases, eliminate=None):
    """The batched-QR phase-2 step the Householder reflector replaced, kept as its reference."""
    stacked = np.asarray(bases, dtype=float)
    G, n, m = stacked.shape
    if eliminate is None:
        return np.sum(stacked * stacked, axis=2), [stacked[g] for g in range(G)]
    items = np.asarray(list(eliminate), dtype=int)
    rows = stacked[np.arange(G), items]
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    directions = rows / norms[:, None]
    projected = stacked - np.matmul(stacked, directions[:, :, None]) * directions[:, None, :]
    q, r = np.linalg.qr(projected)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    weights = np.empty((G, n))
    new_bases = []
    for g in range(G):
        keep = diag[g] > 1e-9
        if int(keep.sum()) < m - 1:
            # a nearly zero leading column hides a surviving dimension from
            # unpivoted QR; pivoted QR orders the diagonal by magnitude
            from scipy.linalg import qr as pivoted_qr

            basis = pivoted_qr(projected[g], mode="economic", pivoting=True)[0][:, :m - 1]
        else:
            basis = q[g][:, keep]
        new_bases.append(basis)
        weights[g] = np.sum(basis * basis, axis=1)
    return weights, new_bases


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
        for dpp in (SymmetricDPP(small_psd), NonsymmetricDPP(rotation)):
            L = dpp.L
            sizes = dpp.cardinality_distribution()
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
        expected = SymmetricDPP(small_low_rank_psd).cardinality_distribution()
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

    def test_select_kdpp_eigenvectors_matches_reference_loop(self):
        # 320 spectra, n = 1..250, sorted like a clipped eigh, a share of
        # exact zeros and eigenvalues spread over 1e±3: the same mask and
        # the same random stream as the per-eigenvalue loop, at k = 1,
        # k = rank and k = n where that is feasible
        spectra = np.random.default_rng(24)
        checked = 0
        for case in range(320):
            n = int(spectra.integers(1, 251))
            lam = np.sort(spectra.exponential(size=n) * 10.0 ** spectra.uniform(-3, 3, size=n))
            if case % 2:
                lam[: int(spectra.integers(0, n))] = 0.0
            rank = int(np.count_nonzero(lam))
            for k in sorted({1, rank, n}):
                if not 1 <= k <= rank:
                    continue
                fast, slow = np.random.default_rng(case), np.random.default_rng(case)
                assert np.array_equal(select_kdpp_eigenvectors(lam, k, fast),
                                      reference_select_kdpp_eigenvectors(lam, k, slow))
                assert fast.random() == slow.random()
                checked += 1
        assert checked >= 600

    def test_overflowing_partition_function_raises(self):
        # e_200 of these is 1e600: the walk would divide inf by inf, or by 0
        for lam in (np.full(250, 1e3), np.r_[np.zeros(50), np.full(200, 1e3)]):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="overflows"):
                select_kdpp_eigenvectors(lam, 200, np.random.default_rng(0))

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


class TestHouseholderStep:
    """Phase 2 drops the selected direction with one m x m Householder reflector."""

    def test_weights_and_bases_on_random_orthonormal_stacks(self):
        rng = np.random.default_rng(7)
        for G, n, m in ((1, 1, 1), (1, 5, 1), (3, 12, 2), (4, 40, 7), (2, 200, 10)):
            bases = np.stack([random_orthogonal(n, seed=rng)[:, :m] for _ in range(G)])
            items = rng.integers(0, n, size=G)
            weights, new_bases = hkpv_projection_step(bases, items)
            assert weights.shape == (G, n)
            for g in range(G):
                U = bases[g]
                d = U[items[g]] / np.linalg.norm(U[items[g]])
                expected = np.diag(U @ (np.eye(m) - np.outer(d, d)) @ U.T)
                np.testing.assert_allclose(weights[g], expected, rtol=0, atol=1e-13)
                assert new_bases[g].shape == (n, m - 1)
                np.testing.assert_allclose(new_bases[g].T @ new_bases[g], np.eye(m - 1),
                                           rtol=0, atol=1e-13)
                single_w, (single_b,) = hkpv_projection_step(U[None], [items[g]])
                assert np.array_equal(weights[g], single_w[0])
                assert np.array_equal(new_bases[g], single_b)

    def test_served_draws_equal_the_qr_route(self, monkeypatch):
        # the reflector and QR give different bases of the same span, so the
        # weights agree to rounding; fixed seeds on three kernels draw the
        # same subsets through the served sampler's engine rounds: 200
        # k-DPP draws and 20 unconstrained draws per kernel
        reference_calls = []

        def reference(bases, eliminate=None):
            reference_calls.append(eliminate)
            return reference_qr_projection_step(bases, eliminate)

        def draws(L, k):
            with serve(L) as session:
                return ([session.sample(k=k, method="spectral", seed=seed).subset
                         for seed in range(200)]
                        + [session.sample(method="spectral", seed=seed).subset
                           for seed in range(20)])

        for L, k in ((random_psd_ensemble(200, rank=60, seed=0), 10),
                     (random_psd_ensemble(50, seed=1), 20),
                     (np.diag(np.linspace(0.01, 5.0, 40)) + 1e-11, 15)):
            fast = draws(L, k)
            with monkeypatch.context() as patch:
                patch.setattr(repro.engine.backends, "hkpv_projection_step", reference)
                slow = draws(L, k)
            assert fast == slow
        assert reference_calls
