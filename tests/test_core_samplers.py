"""Tests for the theorem-level samplers: Theorems 8, 9, 10, 29, 41."""

import math

import numpy as np
import pytest

from repro.core.batched import batch_schedule
from repro.core.entropic import EntropicSamplerConfig, sample_entropic_parallel
from repro.core.filtering import sample_bounded_dpp_filtering
from repro.core.nonsymmetric import (
    sample_nonsymmetric_dpp_parallel,
    sample_nonsymmetric_kdpp_parallel,
)
from repro.core.partition import sample_partition_dpp_parallel
from repro.core.rejection import machines_for_boosting
from repro.core.symmetric import (
    kdpp_batched_config,
    sample_symmetric_dpp_parallel,
    sample_symmetric_kdpp_parallel,
)
from repro.dpp.exact import (
    exact_dpp_distribution,
    exact_kdpp_distribution,
    exact_partition_dpp_distribution,
)
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import as_generator
from repro.workloads import (
    bounded_spectrum_ensemble,
    clustered_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
)


def empirical_tv(sample_fn, exact, num_samples, seed=0):
    """Empirical total-variation distance between sampler output and an exact table."""
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(num_samples):
        subset = tuple(sorted(sample_fn(rng)))
        counts[subset] = counts.get(subset, 0) + 1
    support = set(exact.support) | set(counts)
    z = num_samples
    tv = 0.0
    for s in support:
        p_exact = exact.probability_vector([s])[0] if s in exact.support else 0.0
        tv += abs(counts.get(s, 0) / z - p_exact)
    return 0.5 * tv


def acceptance_z(reports, k, config):
    """z of the accepted proposals against ``Σ m/C`` over every rejection round.

    An exact sampler accepts each proposal with probability exactly ``1/C``,
    because ``Σ_{|T|=ℓ} P[T ⊆ S] = binom(k, ℓ)``.  An iteration retries only
    after a round that accepts nothing, so each report's rounds map onto its
    batches in order.
    """
    accepted = expected = variance = 0.0
    for report in reports:
        rates = iter(report.acceptance_rates)
        remaining = k
        for ell in report.batch_sizes:
            C = config.rejection_constant(remaining, ell)
            machines = machines_for_boosting(C, config.delta_per_round, cap=config.machine_cap)
            rate = 0.0
            while rate == 0.0:
                rate = next(rates)
                accepted += rate * machines
                expected += machines / C
                variance += machines / C * (1.0 - 1.0 / C)
            remaining -= ell
    return (accepted - expected) / math.sqrt(variance)


def block_projection_ensemble(k, block=2, seed=0):
    """``k`` rank-one diagonal blocks: the rank-``k`` k-DPP takes one item per block.

    ``P[T ⊆ S] = ∏ p_t`` for ``T`` across blocks, so Lemma 27's bound is attained.
    """
    rng = np.random.default_rng(seed)
    L = np.zeros((k * block, k * block))
    for b in range(k):
        v = rng.uniform(0.5, 1.5, size=block)
        L[b * block:(b + 1) * block, b * block:(b + 1) * block] = np.outer(v, v)
    return L


class TestTheorem10Symmetric:
    def test_kdpp_sample_validity(self, small_psd):
        result = sample_symmetric_kdpp_parallel(small_psd, 3, seed=0)
        assert len(result.subset) == 3
        assert SymmetricKDPP(small_psd, 3).unnormalized(result.subset) > 0

    def test_kdpp_distribution_accuracy(self, small_psd):
        exact = exact_kdpp_distribution(small_psd, 2)
        tv = empirical_tv(
            lambda rng: sample_symmetric_kdpp_parallel(small_psd, 2, seed=rng).subset,
            exact, num_samples=2500, seed=1,
        )
        assert tv < 0.06

    def test_unconstrained_dpp_accuracy(self, small_low_rank_psd):
        exact = exact_dpp_distribution(small_low_rank_psd)
        tv = empirical_tv(
            lambda rng: sample_symmetric_dpp_parallel(small_low_rank_psd, seed=rng).subset,
            exact, num_samples=2500, seed=2,
        )
        assert tv < 0.08

    def test_depth_improves_on_sequential(self):
        from repro.core.sequential import sequential_sample

        L = random_psd_ensemble(80, rank=80, seed=3)
        k = 36
        parallel = sample_symmetric_kdpp_parallel(L, k, seed=4)
        sequential = sequential_sample(SymmetricKDPP(L, k), seed=4)
        assert parallel.report.rounds < sequential.report.rounds
        # quadratic speedup ballpark: rounds should be O(sqrt(k)) * const
        assert parallel.report.rounds <= 8 * np.sqrt(k)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_symmetric_kdpp_parallel(np.diag([1.0, -1.0]), 1, seed=0)

    def test_report_contains_acceptance(self, small_psd):
        result = sample_symmetric_kdpp_parallel(small_psd, 4, seed=5)
        assert result.report.mean_acceptance > 0
        assert sum(result.report.batch_sizes) == 4

    def test_unconstrained_records_cardinality(self, small_psd):
        result = sample_symmetric_dpp_parallel(small_psd, seed=6)
        if result.subset:
            assert result.report.extra["sampled_cardinality"] == len(result.subset)

    def test_lemma27_acceptance_rate(self):
        # Lemma 27: a proposal is accepted with probability 1/C, where
        # C = k^ell (k - ell)!/k! stays near e for ell = ceil(sqrt(2k));
        # the mean acceptance should comfortably exceed 0.2.
        L = random_psd_ensemble(48, rank=48, seed=7)
        result = sample_symmetric_kdpp_parallel(L, 16, seed=8)
        assert result.report.mean_acceptance > 0.2

    def test_schedule_rounds(self):
        # ell = ceil(sqrt(2 k_i)): k = 10 takes batches 5, 4, 1, and each
        # iteration without a retry is three rounds (marginals, joint
        # marginals, coin flips)
        rule = kdpp_batched_config(10).batch_size
        assert batch_schedule(10, rule) == [5, 4, 1]
        # under the 2 sqrt(k) iterations that delta / (2 sqrt(k) + 1) per round assumes
        assert all(len(batch_schedule(k, rule)) < 2 * math.sqrt(k) for k in range(1, 2001))
        L = random_psd_ensemble(200, rank=60, seed=0)
        result = sample_symmetric_kdpp_parallel(L, 10, seed=1)
        assert result.report.batch_sizes == [5, 4, 1]
        assert len(result.report.acceptance_rates) == 3
        assert result.report.rounds == 9

    @pytest.mark.parametrize("k", [16, 36, 64, 100])
    def test_acceptance_matches_inverse_constant(self, k):
        L = random_psd_ensemble(144, rank=144, seed=0)
        reports = [sample_symmetric_kdpp_parallel(L, k, seed=seed).report for seed in range(8)]
        assert not any(report.failed for report in reports)
        assert sum(report.ratio_violations for report in reports) == 0
        assert abs(acceptance_z(reports, k, kdpp_batched_config(k))) <= 4.5

    def test_multi_iteration_distribution_accuracy(self):
        # k = 4 runs batches (3, 1); 2,500 exact draws over C(8, 4) = 70
        # outcomes read a TV of at most ~0.067 in expectation
        L = random_psd_ensemble(8, rank=8, seed=3)
        assert batch_schedule(4, kdpp_batched_config(4).batch_size) == [3, 1]
        exact = exact_kdpp_distribution(L, 4)
        tv = empirical_tv(
            lambda rng: sample_symmetric_kdpp_parallel(L, 4, seed=rng).subset,
            exact, num_samples=2500, seed=4,
        )
        assert tv < 0.1

    @pytest.mark.parametrize("k", [4, 16, 100])
    def test_attained_bound_draws_without_violations(self, k):
        # every cross-block tuple's density ratio equals Lemma 27's bound;
        # the constant's margin keeps rounding from flagging it
        L = block_projection_ensemble(k, seed=k)
        kdpp = SymmetricKDPP(L, k)
        across = tuple(range(0, 2 * math.ceil(math.sqrt(2 * k)), 2))
        assert kdpp.joint_marginals_batch([across])[0] == pytest.approx(
            np.prod(kdpp.marginal_vector()[list(across)]), rel=1e-9)
        result = sample_symmetric_kdpp_parallel(L, k, seed=5)
        assert result.report.ratio_violations == 0
        assert not result.report.failed
        assert sorted(i // 2 for i in result.subset) == list(range(k))

    def test_unconstrained_draw_decomposes_L_once(self, monkeypatch):
        # validation's eigvalsh, then one eigh that the size distribution
        # and the k-DPP both read
        L = random_psd_ensemble(200, rank=60, seed=0)
        calls = []

        def recording(name):
            function = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                if np.shape(a)[-1] == L.shape[0]:
                    calls.append(name)
                return function(a, *args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for name in ("eigh", "eigvalsh", "eigvals", "svd"):
                patch.setattr(np.linalg, name, recording(name))
            result = sample_symmetric_dpp_parallel(L, seed=3)
        assert result.subset
        assert calls == ["eigvalsh", "eigh"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unconstrained_draw_matches_the_kdpp_route(self, seed):
        # Remark 15 spelled out: draw |S| from the size distribution, then
        # run the k-DPP sampler on the same generator
        L = random_psd_ensemble(40, rank=20, seed=seed)
        result = sample_symmetric_dpp_parallel(L, seed=seed)
        rng = as_generator(seed)
        tracker = Tracker()
        with use_tracker(tracker), tracker.round("cardinality-sampling"):
            sizes = SymmetricDPP(L).cardinality_distribution()
            k = int(rng.choice(sizes.size, p=sizes))
        expected = sample_symmetric_kdpp_parallel(L, k, seed=rng, tracker=tracker)
        assert result.subset == expected.subset
        assert result.report.batch_sizes == expected.report.batch_sizes
        for field in ("rounds", "oracle_calls", "work"):
            assert getattr(result.report, field) == getattr(expected.report, field)


class TestTheorem29Entropic:
    def test_config_batch_size_exponent(self):
        cfg = EntropicSamplerConfig(c=0.25)
        assert cfg.batch_size(256) == int(np.ceil(256 ** 0.25))
        assert cfg.batch_size(1) == 1

    def test_requires_fixed_cardinality(self, small_psd):
        from repro.dpp.symmetric import SymmetricDPP

        with pytest.raises(ValueError):
            sample_entropic_parallel(SymmetricDPP(small_psd), seed=0)

    def test_sample_validity_on_hard_instance(self):
        from repro.distributions.hard_instance import PairedHardInstance

        mu = PairedHardInstance(12, 6)
        result = sample_entropic_parallel(mu, EntropicSamplerConfig(c=0.3, epsilon=0.1), seed=1)
        assert len(result.subset) == 6

    def test_accuracy_on_hard_instance(self):
        from repro.distributions.hard_instance import PairedHardInstance

        mu = PairedHardInstance(8, 4)
        exact = mu.to_explicit()
        cfg = EntropicSamplerConfig(c=0.3, epsilon=0.05)
        tv = empirical_tv(
            lambda rng: sample_entropic_parallel(mu, cfg, seed=rng).subset,
            exact, num_samples=1500, seed=2,
        )
        assert tv < 0.1

    def test_conservative_constant(self):
        cfg = EntropicSamplerConfig(c=0.5, epsilon=0.1, conservative=True)
        constant = cfg.rejection_constant(10)
        assert constant(4, 2) > 1e3


class TestTheorem8Nonsymmetric:
    def test_kdpp_sample_validity(self, small_npsd):
        result = sample_nonsymmetric_kdpp_parallel(small_npsd, 3, seed=0)
        assert len(result.subset) == 3
        assert NonsymmetricKDPP(small_npsd, 3).unnormalized(result.subset) > 0

    def test_kdpp_distribution_accuracy(self, small_npsd):
        exact = exact_kdpp_distribution(small_npsd, 2)
        cfg = EntropicSamplerConfig(c=0.3, epsilon=0.05)
        tv = empirical_tv(
            lambda rng: sample_nonsymmetric_kdpp_parallel(small_npsd, 2, config=cfg, seed=rng).subset,
            exact, num_samples=2000, seed=1,
        )
        assert tv < 0.08

    def test_unconstrained_accuracy(self, small_npsd):
        exact = exact_dpp_distribution(small_npsd)
        tv = empirical_tv(
            lambda rng: sample_nonsymmetric_dpp_parallel(small_npsd, seed=rng).subset,
            exact, num_samples=2000, seed=2,
        )
        assert tv < 0.1

    def test_rejects_non_npsd(self):
        with pytest.raises(ValueError):
            sample_nonsymmetric_kdpp_parallel(np.diag([-2.0, 1.0]), 1, seed=0)


class TestTheorem9Partition:
    def test_sample_satisfies_constraints(self, clustered):
        L, parts = clustered
        counts = [2, 1]
        result = sample_partition_dpp_parallel(L, parts, counts, seed=0)
        assert len(result.subset) == 3
        tallies = [len(set(result.subset) & set(p)) for p in parts]
        assert tallies == counts

    def test_distribution_accuracy(self, clustered):
        L, parts = clustered
        counts = [1, 1]
        exact = exact_partition_dpp_distribution(L, parts, counts)
        cfg = EntropicSamplerConfig(c=0.3, epsilon=0.05)
        tv = empirical_tv(
            lambda rng: sample_partition_dpp_parallel(L, parts, counts, config=cfg, seed=rng).subset,
            exact, num_samples=1200, seed=1,
        )
        assert tv < 0.1

    def test_infeasible_constraints_raise(self, clustered):
        L, parts = clustered
        with pytest.raises(ValueError):
            sample_partition_dpp_parallel(L, parts, [5, 5], seed=0)


class TestTheorem41Filtering:
    def test_output_validity(self):
        L = bounded_spectrum_ensemble(20, kernel_lambda_max=0.15, seed=0)
        result = sample_bounded_dpp_filtering(L, epsilon=0.1, seed=1, strategy="filter")
        # every sampled subset has positive DPP mass
        if result.subset:
            sub = L[np.ix_(result.subset, result.subset)]
            assert np.linalg.det(sub) > 0

    def test_accuracy_small_instance(self):
        L = bounded_spectrum_ensemble(6, kernel_lambda_max=0.3, seed=2)
        exact = exact_dpp_distribution(L)
        tv = empirical_tv(
            lambda rng: sample_bounded_dpp_filtering(L, epsilon=0.05, seed=rng,
                                                     strategy="filter").subset,
            exact, num_samples=1500, seed=3,
        )
        assert tv < 0.12

    def test_trace_strategy_accuracy(self):
        L = bounded_spectrum_ensemble(6, kernel_lambda_max=0.3, seed=4)
        exact = exact_dpp_distribution(L)
        tv = empirical_tv(
            lambda rng: sample_bounded_dpp_filtering(L, epsilon=0.05, seed=rng,
                                                     strategy="trace").subset,
            exact, num_samples=1500, seed=5,
        )
        assert tv < 0.1

    def test_auto_strategy_picks_a_route(self):
        L = bounded_spectrum_ensemble(15, kernel_lambda_max=0.2, expected_size=2.0, seed=6)
        result = sample_bounded_dpp_filtering(L, epsilon=0.1, seed=7, strategy="auto")
        assert "lambda_max" in result.report.extra
        assert "trace" in result.report.extra

    def test_invalid_strategy(self, small_psd):
        with pytest.raises(ValueError):
            sample_bounded_dpp_filtering(small_psd, strategy="bogus", seed=0)

    def test_report_tracks_rounds(self):
        L = bounded_spectrum_ensemble(12, kernel_lambda_max=0.1, seed=8)
        tracker = Tracker()
        result = sample_bounded_dpp_filtering(L, epsilon=0.1, seed=9, tracker=tracker,
                                              strategy="filter")
        assert result.report.rounds == tracker.rounds
        assert tracker.rounds >= 1
