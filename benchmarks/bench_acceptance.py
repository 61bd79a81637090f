"""E4 — Lemma 27: acceptance probability of batched rejection sampling.

Paper claim: for negatively correlated μ (symmetric DPPs/k-DPPs) the density
ratio of an ordered ``ℓ``-tuple is at most ``C = ∏_{i<ℓ} k/(k − i)``, about
``exp(ℓ²/2k)`` (Lemma 27), so a constant number of machines per round
suffices.  An exact sampler accepts each proposal with probability exactly
``1/C``, because ``Σ_{|T|=ℓ} P[T ⊆ S] = binom(k, ℓ)``.  The benchmark prints
the Theorem 10 driver's batch schedule (``ℓ = ⌈√(2k_i)⌉``) and ``1/C`` per
iteration, and gates the pooled acceptance against ``Σ m/C`` across ``k``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.batched import batch_schedule
from repro.core.rejection import machines_for_boosting
from repro.core.symmetric import kdpp_batched_config, sample_symmetric_kdpp_parallel
from repro.workloads import random_psd_ensemble

from _helpers import print_table, record


def _acceptance_z(reports, k, config):
    """z of the accepted proposals against ``Σ m/C`` over every rejection round.

    An iteration retries only after a round that accepts nothing, so each
    report's rounds map onto its batches in order.
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


def test_e4_acceptance_vs_lemma27_bound(benchmark):
    n = 144
    L = random_psd_ensemble(n, rank=n, seed=0)
    rows = []
    measured = {}
    z_scores = {}
    for k in (16, 36, 64, 100):
        config = kdpp_batched_config(k)
        schedule = batch_schedule(k, config.batch_size)
        remaining = k - np.cumsum([0] + schedule[:-1])
        inverse = [1.0 / config.rejection_constant(r, ell) for r, ell in zip(remaining, schedule)]
        reports = [sample_symmetric_kdpp_parallel(L, k, seed=seed).report for seed in range(8)]
        assert not any(report.failed for report in reports)
        assert all(report.batch_sizes == schedule for report in reports)
        measured[k] = float(np.mean([rate for r in reports for rate in r.acceptance_rates]))
        z_scores[k] = _acceptance_z(reports, k, config)
        rows.append([k, " ".join(map(str, schedule)), " ".join(f"{x:.2f}" for x in inverse),
                     f"{measured[k]:.3f}", f"{z_scores[k]:+.2f}",
                     sum(r.ratio_violations for r in reports)])

    print_table(
        "E4 (Lemma 27): per-round acceptance of the Theorem 10 sampler",
        ["k", "batches ell", "1/C per batch", "mean acceptance", "z vs sum m/C", "violations"],
        rows,
    )
    print("An exact sampler accepts each proposal with probability 1/C; C stays near e")
    print("as k grows, so a constant number of machines per round suffices — the key")
    print("to the O(sqrt k) depth.")

    record(benchmark, **{f"acceptance_k{k}": v for k, v in measured.items()},
           **{f"acceptance_z_k{k}": v for k, v in z_scores.items()})
    benchmark.pedantic(lambda: sample_symmetric_kdpp_parallel(L, 64, seed=9),
                       rounds=1, iterations=1)
    assert max(abs(z) for z in z_scores.values()) <= 4.5
    assert all(row[-1] == 0 for row in rows)


def test_e4_acceptance_degrades_without_negative_correlation(benchmark):
    """On the Section 7 paired instance the Lemma 27 constant is *not* valid:
    ratio violations appear, which is exactly why Theorems 8/9 need the
    modified rejection sampler."""
    from repro.core.batched import BatchedSamplerConfig, batched_sample
    from repro.distributions.hard_instance import PairedHardInstance

    mu = PairedHardInstance(20, 10)
    config = BatchedSamplerConfig(max_rounds_per_batch=4)  # Lemma 27 constant
    violations = 0
    proposals = 0
    for seed in range(3):
        result = batched_sample(mu, config, seed=seed)
        violations += result.report.ratio_violations
        proposals += result.report.proposals
    rate = violations / max(proposals, 1)
    print(f"\nE4b: paired hard instance, Lemma 27 constant: {violations} ratio violations "
          f"out of {proposals} proposals ({100 * rate:.1f}%) — positive correlations break "
          "the symmetric-DPP acceptance bound, as Section 1.2 predicts.")
    record(benchmark, violation_rate=rate)
    benchmark.pedantic(lambda: batched_sample(mu, config, seed=7), rounds=1, iterations=1)
    assert violations > 0
