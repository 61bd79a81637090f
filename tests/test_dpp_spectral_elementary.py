"""Tests for the sequential HKPV spectral samplers and ESP-based marginals."""

import warnings

import numpy as np
import pytest

import repro.dpp.elementary
import repro.engine.backends
from repro import serve
from repro.dpp.elementary import kdpp_marginals_from_factor, leave_one_out_esp
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.spectral import (
    kdpp_step_table,
    sample_dpp_spectral,
    sample_kdpp_spectral,
    select_kdpp_eigenvectors,
)
from repro.dpp.nonsymmetric import NonsymmetricDPP
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.linalg.batch import hkpv_projection_step, psd_factor, symmetrized_eigh
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


def reference_qr_projection_step(bases, eliminate=None, state=None):
    """Each round's leverages from scratch, by QR of the chosen rows.

    Kept as the reference of the leverage downdate, under its signature: this
    route's state is ``(chosen rows, leverages)``, and every round
    orthonormalizes all the chosen rows again instead of extending a span.
    """
    stacked = np.asarray(bases, dtype=float)
    G, n, m = stacked.shape
    if eliminate is None:
        leverages = np.sum(stacked * stacked, axis=2)
        return leverages, (np.empty((G, 0, m)), leverages)
    items = np.asarray(list(eliminate), dtype=int)
    rows = np.concatenate([state[0], stacked[np.arange(G), items][:, None, :]], axis=1)
    q, _ = np.linalg.qr(rows.transpose(0, 2, 1))               # (G, m, t + 1)
    residual = stacked - np.matmul(np.matmul(stacked, q), q.transpose(0, 2, 1))
    leverages = np.sum(residual * residual, axis=2)
    leverages[np.arange(G), items] = 0.0
    return leverages, (rows, leverages)


def from_scratch_leverages(U, chosen):
    """``diag(U (I - QQᵀ) Uᵀ)`` with ``Q`` an orthonormal basis of the chosen rows."""
    if not len(chosen):
        return np.sum(U * U, axis=1)
    q, _ = np.linalg.qr(U[list(chosen)].T)
    residual = U - (U @ q) @ q.T
    return np.sum(residual * residual, axis=1)


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
        # k = rank and k = n where that is feasible; with a step table built
        # here, and one built for a larger k' (a served epoch's table, grown
        # to the largest k drawn); and on four bit generators, since the walk
        # reads its uniforms in blocks and rewinds the generator by its state
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
                larger = min(n, k + 7)
                with np.errstate(over="ignore", invalid="ignore"):
                    wide = kdpp_step_table(lam, larger)
                for bits in (np.random.PCG64, np.random.MT19937, np.random.Philox,
                             np.random.SFC64):
                    slow = np.random.Generator(bits(case))
                    expected = reference_select_kdpp_eigenvectors(lam, k, slow)
                    after = slow.random()
                    for steps in (None, wide):
                        fast = np.random.Generator(bits(case))
                        assert np.array_equal(
                            select_kdpp_eigenvectors(lam, k, fast, steps=steps), expected)
                        assert fast.random() == after
                        checked += 1
        assert checked >= 4800

    def test_step_table_of_a_feasible_spectrum_warns_nothing(self):
        # entries the walk never reaches are 0/0 (E[r, m] = 0 for m < r, and
        # where the spectrum has zeros); they are computed silently, up to
        # k = rank
        L = random_psd_ensemble(60, rank=12, seed=4)
        lam = symmetrized_eigh(L)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 5, 12):
                steps, totals = kdpp_step_table(lam, k)
                assert steps.shape == (k, 60) and totals.shape == (k + 1,)
                assert 0 < totals[k] < np.inf
                assert k == 1 or np.isnan(steps).any()
                mask = select_kdpp_eigenvectors(lam, k, np.random.default_rng(k),
                                                steps=(steps, totals))
                assert mask.sum() == k

    def test_step_table_too_small_is_refused(self):
        lam = np.linspace(0.1, 2.0, 12)
        with pytest.raises(ValueError, match="step table"):
            select_kdpp_eigenvectors(lam, 5, np.random.default_rng(0),
                                     steps=kdpp_step_table(lam, 4))
        with pytest.raises(ValueError, match="step table"):
            select_kdpp_eigenvectors(lam, 3, np.random.default_rng(0),
                                     steps=kdpp_step_table(lam[:10], 4))

    def test_overflowing_partition_function_raises(self):
        # e_200 of these is 1e600: the walk would divide inf by inf, or by 0;
        # the check runs on every call, also with a table supplied
        for lam in (np.full(250, 1e3), np.r_[np.zeros(50), np.full(200, 1e3)]):
            with np.errstate(over="ignore", invalid="ignore"):
                steps = kdpp_step_table(lam, 200)
                for table in (None, steps):
                    with pytest.raises(ValueError, match="overflows"):
                        select_kdpp_eigenvectors(lam, 200, np.random.default_rng(0),
                                                 steps=table)

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


class TestLeverageDowndate:
    """Phase 2 downdates the leverage scores of a fixed basis, one span direction a round."""

    def test_leverages_and_spans_on_random_stacks(self):
        rng = np.random.default_rng(7)
        for G, n, m in ((1, 1, 1), (1, 5, 1), (3, 12, 2), (4, 40, 7), (2, 200, 10)):
            bases = np.stack([random_orthogonal(n, seed=rng)[:, :m] for _ in range(G)])
            leverages, state = hkpv_projection_step(bases)
            np.testing.assert_array_equal(leverages, np.sum(bases * bases, axis=2))
            assert state[0].shape == (G, 0, m)
            chosen = [rng.choice(n, size=m, replace=False) for _ in range(G)]
            for t in range(m):
                items = [int(c[t]) for c in chosen]
                previous = state
                leverages, state = hkpv_projection_step(bases, items, previous)
                spans = state[0]
                assert leverages.shape == (G, n) and spans.shape == (G, t + 1, m)
                assert state[1] is leverages
                for g in range(G):
                    U, E = bases[g], spans[g]
                    np.testing.assert_allclose(E @ E.T, np.eye(t + 1), rtol=0, atol=1e-13)
                    expected = np.diag(U @ (np.eye(m) - E.T @ E) @ U.T)
                    np.testing.assert_allclose(leverages[g], expected, rtol=0, atol=1e-13)
                    single_l, (single_e, _) = hkpv_projection_step(
                        U[None], [items[g]],
                        (previous[0][g:g + 1], previous[1][g:g + 1]))
                    assert np.array_equal(leverages[g], single_l[0])
                    assert np.array_equal(E, single_e[0])

    def test_served_draws_equal_the_qr_route(self, monkeypatch):
        # the downdate and a from-scratch QR of the chosen rows give the same
        # leverages to rounding; fixed seeds on three kernels draw the same
        # subsets through the served sampler's engine rounds: 200 k-DPP
        # draws and 20 unconstrained draws per kernel
        reference_calls = []

        def reference(bases, eliminate=None, state=None):
            reference_calls.append(eliminate)
            return reference_qr_projection_step(bases, eliminate, state)

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

    def test_whole_chains_track_a_from_scratch_projection(self):
        rng = np.random.default_rng(11)
        bases = [random_orthogonal(200, seed=1)[:, :10],
                 random_orthogonal(1000, seed=2)[:, :100]]
        for L in (TestPhaseTwoDegenerateBasis.DEGENERATE,
                  np.diag([0.05, 0.5, 1.05, 2.0]) + 1e-11):
            bases.append(np.linalg.eigh(L)[1])
        for U in bases:
            for _chain in range(3):
                leverages, state = hkpv_projection_step(U[None])
                chosen = []
                for _step in range(U.shape[1]):
                    np.testing.assert_allclose(leverages[0], from_scratch_leverages(U, chosen),
                                               rtol=0, atol=1e-12)
                    weights = np.clip(leverages[0], 0.0, None)
                    chosen.append(int(rng.choice(U.shape[0], p=weights / weights.sum())))
                    leverages, state = hkpv_projection_step(U[None], chosen[-1:], state)
                np.testing.assert_allclose(leverages[0], 0.0, rtol=0, atol=1e-12)

    def test_chosen_rows_get_zero_weight_and_no_draw_repeats(self, monkeypatch):
        # k equals the rank, so each chain uses up the whole eigenspace and
        # its last draw sees one unit of mass beside the chosen rows' residue
        L = random_psd_ensemble(30, rank=8, seed=3)
        chain = []

        def checking(bases, eliminate=None, state=None):
            leverages, new_state = hkpv_projection_step(bases, eliminate, state)
            if eliminate is None:
                chain.clear()
            else:
                chain.append(int(eliminate[0]))
                # the new row is set to 0; earlier ones sit at 0 - (tiny)²,
                # so the draw's clip gives every chosen row weight exactly 0
                assert leverages[0, chain[-1]] == 0.0
                assert np.all(leverages[0, chain] <= 0.0)
            return leverages, new_state

        monkeypatch.setattr(repro.engine.backends, "hkpv_projection_step", checking)
        with serve(L) as session:
            for seed in range(2000):
                subset = session.sample(k=8, method="spectral", seed=seed).subset
                assert len(set(subset)) == 8
                assert set(chain) < set(subset)

    def test_served_draw_charges_one_round_per_step(self):
        # n³ for the eigendecomposition, n·w² for each step over a width-w space
        for n, rank, k, work in ((200, 60, 10, 8_076_800), (100, 40, 25, 1_552_400)):
            assert work == n ** 3 + n * sum(w * w for w in range(2, k + 1))
            with serve(random_psd_ensemble(n, rank=rank, seed=0)) as session:
                report = session.sample(k=k, method="spectral", seed=4).report
            assert report.rounds == 1 + k
            assert report.work == work
