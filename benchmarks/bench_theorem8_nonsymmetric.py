"""E5 — Theorem 8: parallel depth for nonsymmetric DPPs / k-DPPs.

Paper claim: for nPSD ensemble matrices, the entropic meta-sampler needs
``Õ(√k (k/ε)^c)`` adaptive rounds (vs ``Θ(k)`` sequentially).  The benchmark
sweeps ``k`` and the constant ``c`` and reports measured rounds and the
modified-rejection violation counts.
"""

from __future__ import annotations

from repro.core.entropic import EntropicSamplerConfig
from repro.core.nonsymmetric import sample_nonsymmetric_kdpp_parallel
from repro.core.sequential import sequential_sample
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.workloads import random_npsd_ensemble

from _helpers import fit_power_law, print_table, record


def test_e5_nonsymmetric_kdpp_depth(benchmark):
    n = 48
    L = random_npsd_ensemble(n, symmetric_scale=1.0, skew_scale=0.8, seed=0)
    config = EntropicSamplerConfig(c=0.25, epsilon=0.1)

    rows = []
    ks = (4, 9, 16, 25)
    parallel_rounds = []
    for k in ks:
        par = sample_nonsymmetric_kdpp_parallel(L, k, config=config, seed=1)
        seq = sequential_sample(NonsymmetricKDPP(L, k), seed=1)
        parallel_rounds.append(par.report.rounds)
        rows.append([
            k, f"{k ** (0.5 + config.c):.1f}", par.report.rounds, seq.report.rounds,
            f"{seq.report.rounds / par.report.rounds:.2f}x", par.report.ratio_violations,
        ])

    exponent = fit_power_law(ks, parallel_rounds)
    print_table(
        "E5 (Theorem 8.1): nonsymmetric k-DPP parallel depth, n=48, c=0.25, eps=0.1",
        ["k", "k^(1/2+c)", "parallel rounds", "sequential rounds", "speedup", "ratio violations"],
        rows,
    )
    print(f"fitted depth exponent: {exponent:.2f} (paper: 1/2 + c = {0.5 + config.c}; sequential: 1)")

    record(benchmark, depth_exponent=exponent)
    benchmark.pedantic(
        lambda: sample_nonsymmetric_kdpp_parallel(L, 16, config=config, seed=2),
        rounds=1, iterations=1)
    assert exponent < 1.0


def test_e5_effect_of_batch_exponent_c(benchmark):
    """Ablation: smaller c means bigger batches (fewer rounds) but more machines."""
    n = 48
    L = random_npsd_ensemble(n, seed=3)
    k = 25
    rows = []
    for c in (0.45, 0.3, 0.15):
        config = EntropicSamplerConfig(c=c, epsilon=0.1)
        result = sample_nonsymmetric_kdpp_parallel(L, k, config=config, seed=4)
        rows.append([c, result.report.rounds, int(result.report.peak_machines),
                     result.report.ratio_violations,
                     f"{result.report.mean_acceptance:.2f}"])

    print_table(
        "E5b (ablation): batch exponent c trades rounds for machines (k=25)",
        ["c", "parallel rounds", "peak machines", "ratio violations", "acceptance"],
        rows,
    )
    print("Smaller c -> larger batches (k^{1/2-c}) -> fewer adaptive rounds but lower")
    print("acceptance / more machines, exactly the trade-off in Theorem 29's statement.")

    record(benchmark, rounds_c045=rows[0][1], rounds_c015=rows[-1][1])
    benchmark.pedantic(
        lambda: sample_nonsymmetric_kdpp_parallel(L, k, config=EntropicSamplerConfig(c=0.3), seed=5),
        rounds=1, iterations=1)
    assert rows[-1][1] <= rows[0][1]
