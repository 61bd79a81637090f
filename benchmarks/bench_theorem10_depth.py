"""E1/E2 — Theorem 10: parallel depth of symmetric (k-)DPP sampling.

Paper claim: the batched sampler needs ``Õ(√k)`` adaptive rounds (``Õ(√n)``
for unconstrained DPPs) versus the ``Θ(k)`` rounds of the sequential
sampling-to-counting reduction.  The benchmark sweeps ``k`` (resp. ``n``),
prints measured rounds for both samplers, and fits the depth exponent.
"""

from __future__ import annotations

import math

from repro.core.sequential import sequential_sample
from repro.core.symmetric import sample_symmetric_dpp_parallel, sample_symmetric_kdpp_parallel
from repro.dpp.symmetric import SymmetricKDPP
from repro.workloads import random_psd_ensemble

from _helpers import fit_power_law, print_table, record


N_GROUND = 100
K_SWEEP = (4, 9, 16, 36, 64)


def test_e1_kdpp_depth_sweep(benchmark):
    """Rounds of the Theorem 10 k-DPP sampler vs the sequential baseline."""
    L = random_psd_ensemble(N_GROUND, rank=N_GROUND, seed=0)

    rows = []
    parallel_rounds = []
    for k in K_SWEEP:
        par = sample_symmetric_kdpp_parallel(L, k, seed=1)
        seq = sequential_sample(SymmetricKDPP(L, k), seed=1)
        parallel_rounds.append(par.report.rounds)
        rows.append([
            k, f"{math.sqrt(k):.1f}", par.report.rounds, seq.report.rounds,
            f"{seq.report.rounds / par.report.rounds:.2f}x",
            f"{par.report.mean_acceptance:.2f}",
        ])

    exponent = fit_power_law(K_SWEEP, parallel_rounds)
    print_table(
        "E1 (Theorem 10.1): symmetric k-DPP parallel depth, n=100",
        ["k", "sqrt(k)", "parallel rounds", "sequential rounds", "speedup", "acceptance"],
        rows,
    )
    print(f"fitted depth exponent (rounds ~ k^a): a = {exponent:.2f}  "
          "(paper: 1/2 for the parallel sampler, 1 for sequential)")

    record(benchmark, depth_exponent=exponent,
           max_speedup=rows[-1][4], k_max=K_SWEEP[-1])
    # wall-clock of one representative parallel sample (k = 36)
    benchmark.pedantic(lambda: sample_symmetric_kdpp_parallel(L, 36, seed=2),
                       rounds=1, iterations=1)
    assert exponent < 0.85


def test_e2_unconstrained_dpp_depth(benchmark):
    """Rounds of the unconstrained symmetric DPP sampler as n grows."""
    rows = []
    rounds_list = []
    sizes = (32, 64, 128)
    for n in sizes:
        # scale so the expected sample size grows linearly with n (E|S| ≈ n/4)
        L = random_psd_ensemble(n, rank=n, seed=3) * (1.0 / 3.0)
        result = sample_symmetric_dpp_parallel(L, seed=4)
        rounds_list.append(max(result.report.rounds, 1))
        rows.append([n, len(result.subset), result.report.rounds,
                     f"{math.sqrt(n):.1f}"])

    exponent = fit_power_law(sizes, rounds_list)
    print_table(
        "E2 (Theorem 10.2): unconstrained symmetric DPP parallel depth",
        ["n", "|S| sampled", "parallel rounds", "sqrt(n)"],
        rows,
    )
    print(f"fitted depth exponent (rounds ~ n^a): a = {exponent:.2f}  (paper: 1/2)")

    record(benchmark, depth_exponent=exponent)
    benchmark.pedantic(
        lambda: sample_symmetric_dpp_parallel(random_psd_ensemble(64, seed=3) / 3.0, seed=5),
        rounds=1, iterations=1)
    assert exponent < 0.95
