"""Tests for rejection-sampling primitives (Algorithms 2/3, Props 25/26)."""

import math

import numpy as np
import pytest

from repro.core.rejection import (
    boosted_rejection_sample,
    machines_for_boosting,
    modified_rejection_round,
)
from repro.core.result import SamplerReport
from repro.pram.tracker import Tracker


class TestMachinesForBoosting:
    def test_scaling_with_C(self):
        assert machines_for_boosting(10.0, 0.01) >= 10 * math.log(100)

    def test_floor(self):
        assert machines_for_boosting(0.5, 0.5) >= 4

    def test_cap(self):
        assert machines_for_boosting(1e9, 1e-9, cap=1000) == 1000

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            machines_for_boosting(2.0, 0.0)
        with pytest.raises(ValueError):
            machines_for_boosting(2.0, 1.5)


class TestModifiedRejectionRound:
    def test_accepts_certain_proposal(self):
        rng = np.random.default_rng(0)
        tracker = Tracker()
        outcome = modified_rejection_round(np.array([0.0]), 0.0, rng, tracker=tracker)
        assert outcome.accepted
        assert outcome.accepted_index == 0
        assert tracker.rounds == 1

    def test_never_accepts_minus_inf(self):
        rng = np.random.default_rng(0)
        outcome = modified_rejection_round(np.full(50, -np.inf), 0.0, rng, tracker=Tracker())
        assert not outcome.accepted
        assert outcome.ratio_violations == 0

    def test_counts_violations_and_never_accepts_them(self):
        rng = np.random.default_rng(0)
        # log ratio above log C: proposals in the bad set of Algorithm 3
        outcome = modified_rejection_round(np.full(20, 5.0), 1.0, rng, tracker=Tracker())
        assert outcome.ratio_violations == 20
        assert not outcome.accepted

    def test_acceptance_probability_statistics(self):
        # acceptance probability should be exp(log_ratio - log_C)
        rng = np.random.default_rng(1)
        log_C = math.log(4.0)
        accepted = 0
        trials = 3000
        for _ in range(trials):
            outcome = modified_rejection_round(np.array([0.0]), log_C, rng, tracker=Tracker())
            accepted += outcome.accepted
        assert accepted / trials == pytest.approx(0.25, abs=0.03)

    def test_picks_first_accepted(self):
        rng = np.random.default_rng(2)
        # all proposals accepted with probability 1 -> index 0 wins
        outcome = modified_rejection_round(np.zeros(10), 0.0, rng, tracker=Tracker())
        assert outcome.accepted_index == 0

    def test_charges_one_round_and_machines(self):
        tracker = Tracker()
        rng = np.random.default_rng(3)
        modified_rejection_round(np.zeros(17), 0.0, rng, tracker=tracker)
        assert tracker.rounds == 1
        assert tracker.peak_machines >= 17


class TestBoostedRejection:
    def test_samples_target_distribution(self):
        # target: {0: 0.7, 1: 0.3}; proposal: uniform.  C = max ratio = 1.4
        target = np.array([0.7, 0.3])
        proposal = np.array([0.5, 0.5])
        C = float(np.max(target / proposal))
        rng = np.random.default_rng(4)

        def propose(count, gen):
            return gen.choice(2, size=count, p=proposal)

        def log_ratio(batch):
            return np.log(target[batch] / proposal[batch])

        counts = np.zeros(2)
        report = SamplerReport()
        for _ in range(2000):
            accepted = boosted_rejection_sample(propose, log_ratio, C, 0.01, rng, report,
                                                tracker=Tracker())
            assert accepted is not None
            batch, idx = accepted
            counts[batch[idx]] += 1
        freqs = counts / counts.sum()
        assert np.allclose(freqs, target, atol=0.03)
        assert not report.failed
        assert len(report.acceptance_rates) >= 2000

    def test_returns_none_when_impossible(self):
        rng = np.random.default_rng(5)

        def propose(count, gen):
            return np.zeros(count, dtype=int)

        def log_ratio(batch):
            return np.full(len(batch), -np.inf)

        report = SamplerReport()
        tracker = Tracker()
        accepted = boosted_rejection_sample(propose, log_ratio, 2.0, 0.1, rng, report,
                                            tracker=tracker, max_rounds=3)
        assert accepted is None
        assert report.failed
        assert report.proposals > 0
        assert report.acceptance_rates == [0.0, 0.0, 0.0]
        assert tracker.rounds == 3

    def test_violation_accounting(self):
        rng = np.random.default_rng(6)

        def propose(count, gen):
            return np.zeros(count, dtype=int)

        def log_ratio(batch):
            return np.full(len(batch), 10.0)  # way above log C

        report = SamplerReport()
        accepted = boosted_rejection_sample(propose, log_ratio, 2.0, 0.1, rng, report,
                                            tracker=Tracker(), max_rounds=2)
        assert accepted is None
        assert report.ratio_violations == report.proposals
        assert report.proposals == 2 * machines_for_boosting(2.0, 0.1)
