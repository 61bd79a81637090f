"""Tests for the Algorithm 1 driver, the batch schedule, and the JVV baseline."""

import math

import numpy as np
import pytest

from repro.core.batched import (
    BatchedSamplerConfig,
    _log_target_ordered,
    batch_schedule,
    batched_sample,
    default_batch_size,
    lemma27_constant,
)
from repro.core.sequential import sequential_sample
from repro.distributions.generic import uniform_distribution_on_size_k
from repro.dpp.exact import exact_kdpp_distribution
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.engine import OracleBatch, VectorizedBackend
from repro.pram.tracker import Tracker
from repro.utils.subsets import binomial, subset_key
from repro.workloads import random_psd_ensemble


def reference_log_target_ordered(distribution, tuples, k_remaining, tracker, backend):
    """The per-machine Python loop the sorted-array bookkeeping replaced, kept as its reference."""
    count, ell = tuples.shape
    log_target = np.full(count, -np.inf)
    if ell == 0:
        return np.zeros(count)
    distinct_mask = np.array([len(set(row.tolist())) == ell for row in tuples])
    distinct_indices = np.flatnonzero(distinct_mask)
    if distinct_indices.size == 0:
        return log_target
    unique_sets = {}
    for idx in distinct_indices:
        key = subset_key(tuples[idx])
        unique_sets.setdefault(key, []).append(idx)
    keys = list(unique_sets)
    batch = OracleBatch.joint_marginals(distribution, keys, label="joint-marginals")
    joints = backend.execute(batch, tracker=tracker).values
    log_binom = math.log(binomial(k_remaining, ell))
    log_fact = math.lgamma(ell + 1)
    for key, joint in zip(keys, joints):
        if joint <= 0:
            continue
        value = math.log(joint) - log_binom - log_fact
        for idx in unique_sets[key]:
            log_target[idx] = value
    return log_target


class RecordingJoints:
    """A stub distribution: each set's joint marginal is a fixed function of
    the set (a thirteenth of them exactly 0), and every batch of queries is
    recorded in order."""

    def __init__(self):
        self.batches = []

    def joint_marginals_batch(self, subsets):
        self.batches.append(list(subsets))
        return np.array([(sum(s) * 7919 + 31 * len(s)) % 13 / 13.0 for s in subsets])


def _proposal_tuples(rng, ell):
    """Proposed ordered tuples with repeated elements, duplicate tuples and
    permutations of one set, from a ground set small enough to collide."""
    machines = int(rng.integers(1, 40))
    tuples = rng.integers(0, ell + int(rng.integers(0, 8)), size=(machines, ell))
    for row in rng.choice(machines, size=machines // 4, replace=False):
        source = tuples[rng.integers(machines)]
        tuples[row] = rng.permutation(source) if rng.random() < 0.7 else source
    if ell > 1 and machines > 1:
        tuples[rng.integers(machines), 1] = tuples[rng.integers(machines), 0]
    return tuples


class TestBatchSchedule:
    def test_default_batch_size(self):
        assert default_batch_size(16) == 4
        assert default_batch_size(17) == 5
        assert default_batch_size(1) == 1

    def test_schedule_sums_to_k(self):
        for k in (1, 2, 5, 16, 100, 1000):
            assert sum(batch_schedule(k)) == k

    def test_schedule_length_at_most_two_sqrt_k(self):
        # Proposition 28
        for k in (1, 4, 10, 64, 100, 500, 2500, 10000):
            assert len(batch_schedule(k)) <= 2 * math.sqrt(k) + 1

    def test_schedule_zero(self):
        assert batch_schedule(0) == []

    def test_schedule_negative_raises(self):
        with pytest.raises(ValueError):
            batch_schedule(-1)

    def test_first_batch_is_ceil_sqrt(self):
        assert batch_schedule(50)[0] == math.ceil(math.sqrt(50))

    def test_custom_batch_size(self):
        schedule = batch_schedule(10, batch_size=lambda k: 2)
        assert schedule == [2, 2, 2, 2, 2]

    def test_lemma27_constant_is_the_exact_product_with_a_margin(self):
        # prod_{i<ell} k/(k - i), raised by a relative 1e-8 above rounding
        for k, ell in ((4, 3), (10, 5), (40, 9), (100, 15), (7, 1)):
            product = math.prod(k / (k - i) for i in range(ell))
            assert product * (1 + 5e-9) < lemma27_constant(k, ell) < product * (1 + 2e-8)
        assert BatchedSamplerConfig().rejection_constant is lemma27_constant


class TestBatchedSampler:
    def test_output_size_and_validity(self, small_psd):
        dist = SymmetricKDPP(small_psd, 3)
        result = batched_sample(dist, seed=0)
        assert len(result.subset) == 3
        assert len(set(result.subset)) == 3
        assert dist.unnormalized(result.subset) > 0

    def test_requires_fixed_cardinality(self, small_psd):
        with pytest.raises(ValueError):
            batched_sample(SymmetricDPP(small_psd), seed=0)

    def test_rounds_scale_with_sqrt_k(self):
        # Compare measured rounds for small and large k on a larger ensemble.
        L = random_psd_ensemble(64, rank=64, seed=0)
        r_small = batched_sample(SymmetricKDPP(L, 4), seed=1)
        r_large = batched_sample(SymmetricKDPP(L, 36), seed=1)
        # sqrt(36)/sqrt(4) = 3; allow a factor-2 slack over the ideal sqrt
        # ratio -- still far below the 9x ratio a sequential sampler shows.
        assert r_large.report.rounds <= 2 * 3 * r_small.report.rounds
        # and the number of accepted batches obeys Proposition 28 directly
        assert len(r_large.report.batch_sizes) <= 2 * 6 + 1

    def test_report_batch_sizes_sum_to_k(self, small_psd):
        result = batched_sample(SymmetricKDPP(small_psd, 4), seed=2)
        assert sum(result.report.batch_sizes) == 4

    def test_acceptance_rates_recorded(self, small_psd):
        result = batched_sample(SymmetricKDPP(small_psd, 4), seed=3)
        assert len(result.report.acceptance_rates) >= 1
        assert result.report.proposals > 0

    def test_tracker_passthrough(self, small_psd):
        tracker = Tracker()
        result = batched_sample(SymmetricKDPP(small_psd, 3), seed=4, tracker=tracker)
        assert result.report.rounds == tracker.rounds
        assert tracker.rounds > 0

    def test_works_on_generic_distribution(self):
        # the driver only needs the counting-oracle interface
        dist = uniform_distribution_on_size_k(8, 4)
        result = batched_sample(dist, seed=5)
        assert len(result.subset) == 4

    def test_distribution_accuracy_uniform(self):
        # On the uniform size-k distribution (negatively correlated), batched
        # sampling with the default ceil(sqrt k) batch and Lemma 27's exact
        # constant is exact: check empirically.
        dist = uniform_distribution_on_size_k(6, 2)
        counts = {}
        rng = np.random.default_rng(6)
        num_samples = 1500
        for _ in range(num_samples):
            result = batched_sample(dist, seed=rng)
            counts[result.subset] = counts.get(result.subset, 0) + 1
        probs = np.array([counts.get(s, 0) / num_samples for s in dist.support])
        assert np.abs(probs - 1.0 / 15.0).max() < 0.035

    def test_custom_config_single_element_batches(self, small_psd):
        config = BatchedSamplerConfig(batch_size=lambda k: 1)
        result = batched_sample(SymmetricKDPP(small_psd, 3), config, seed=7)
        assert result.report.batch_sizes == [1, 1, 1]

    def test_failure_fallback_keeps_output_valid(self, small_psd):
        # Force failures by making the rejection constant absurdly large with
        # almost no machines and no retries.
        config = BatchedSamplerConfig(
            rejection_constant=lambda k, ell: 1e12,
            machine_cap=2,
            max_rounds_per_batch=1,
        )
        dist = SymmetricKDPP(small_psd, 3)
        result = batched_sample(dist, config, seed=8)
        assert len(result.subset) == 3
        assert dist.unnormalized(result.subset) > 0


class TestLogTargetBookkeeping:
    def test_matches_the_per_machine_reference(self):
        # bitwise-equal log targets and the same distinct sets, queried in
        # the same order, over 540 seeded proposal arrays with l = 1..6
        backend = VectorizedBackend()
        repeated = duplicated = 0
        for seed in range(540):
            rng = np.random.default_rng(seed)
            ell = 1 + seed % 6
            tuples = _proposal_tuples(rng, ell)
            k_remaining = ell + int(rng.integers(0, 5))
            fast, slow = RecordingJoints(), RecordingJoints()
            got = _log_target_ordered(fast, tuples, k_remaining, Tracker(), backend)
            expected = reference_log_target_ordered(slow, tuples, k_remaining, Tracker(), backend)
            assert got.tobytes() == expected.tobytes()
            assert fast.batches == slow.batches
            assert all(type(i) is int for batch in fast.batches for s in batch for i in s)
            sets = [frozenset(row) for row in tuples.tolist()]
            repeated += sum(len(row) < ell for row in sets)
            duplicated += len(sets) - len(set(sets))
        assert repeated > 500 and duplicated > 500  # the arrays exercised both


class TestConditioningCount:
    @staticmethod
    def _counting_condition(monkeypatch):
        calls = []
        condition = SymmetricKDPP.condition

        def counted(self, include):
            calls.append(tuple(include))
            return condition(self, include)

        monkeypatch.setattr(SymmetricKDPP, "condition", counted)
        return calls

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_one_conditioning_per_batch_but_the_last(self, monkeypatch, k):
        calls = self._counting_condition(monkeypatch)
        L = random_psd_ensemble(40, rank=20, seed=k)
        for seed in range(4):
            del calls[:]
            result = batched_sample(SymmetricKDPP(L, k), seed=seed)
            assert not result.report.failed
            assert len(calls) == len(result.report.batch_sizes) - 1

    def test_fallback_conditions_on_every_element_but_the_last(self, monkeypatch):
        calls = self._counting_condition(monkeypatch)
        dist = SymmetricKDPP(random_psd_ensemble(40, rank=20, seed=1), 7)
        result = batched_sample(dist, BatchedSamplerConfig(max_rounds_per_batch=0), seed=3)
        assert result.report.failed
        assert result.report.batch_sizes == batch_schedule(7)
        assert len(result.subset) == 7 and dist.unnormalized(result.subset) > 0
        assert len(calls) == 7 - 1 and all(len(items) == 1 for items in calls)

    def test_sequential_sampler_conditions_on_every_element_but_the_last(self, monkeypatch):
        calls = self._counting_condition(monkeypatch)
        dist = SymmetricKDPP(random_psd_ensemble(40, rank=20, seed=2), 10)
        for seed in range(3):
            del calls[:]
            result = sequential_sample(dist, seed=seed)
            assert len(result.subset) == 10 and dist.unnormalized(result.subset) > 0
            assert len(calls) == 10 - 1 and all(len(items) == 1 for items in calls)


class TestSequentialSampler:
    def test_output_validity(self, small_psd):
        dist = SymmetricKDPP(small_psd, 3)
        result = sequential_sample(dist, seed=0)
        assert len(result.subset) == 3
        assert dist.unnormalized(result.subset) > 0

    def test_depth_is_linear_in_k(self, small_psd, small_npsd, clustered):
        L, parts = clustered
        for k, counts in ((1, (1, 0)), (2, (1, 1)), (4, (2, 2))):
            # a conditioned child reads its root's tables: no child builds any
            for dist in (SymmetricKDPP(small_psd, k), PartitionDPP(L, parts, counts),
                         NonsymmetricKDPP(small_npsd, k)):
                result = sequential_sample(dist, seed=1)
                assert result.report.rounds == 2 * k  # marginals round + pick round per step

    def test_requires_fixed_cardinality(self, small_psd):
        with pytest.raises(ValueError):
            sequential_sample(SymmetricDPP(small_psd), seed=0)

    def test_distribution_accuracy(self, small_psd):
        exact = exact_kdpp_distribution(small_psd, 2)
        counts = {}
        rng = np.random.default_rng(2)
        num_samples = 2500
        for _ in range(num_samples):
            result = sequential_sample(SymmetricKDPP(small_psd, 2), seed=rng)
            counts[result.subset] = counts.get(result.subset, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / num_samples - exact.probability_vector([s])[0])
            for s in exact.support
        )
        assert tv < 0.06

    def test_works_on_generic_distribution(self):
        dist = uniform_distribution_on_size_k(7, 3)
        result = sequential_sample(dist, seed=3)
        assert len(result.subset) == 3
