"""E6 — Theorem 9: parallel depth for Partition-DPPs.

Paper claim: for symmetric PSD ensembles with ``r = O(1)`` partition
constraints, the entropic meta-sampler runs in ``Õ(√k (k/ε)^c)`` rounds using
the generating-polynomial counting oracle of [Cel+16], read off a torus DFT.  The benchmark
sweeps the per-part quotas on a clustered workload.
"""

from __future__ import annotations

from repro.core.entropic import EntropicSamplerConfig
from repro.core.partition import sample_partition_dpp_parallel
from repro.core.sequential import sequential_sample
from repro.dpp.partition import PartitionDPP
from repro.workloads import clustered_ensemble

from _helpers import print_table, record


def test_e6_partition_dpp_depth(benchmark):
    L, parts = clustered_ensemble([8, 8], within=0.6, across=0.05, scale=1.5, seed=0)
    config = EntropicSamplerConfig(c=0.25, epsilon=0.1)

    rows = []
    results = {}
    for counts in ((1, 1), (2, 2), (3, 3), (4, 4)):
        k = sum(counts)
        par = sample_partition_dpp_parallel(L, parts, counts, config=config, seed=1)
        seq = sequential_sample(PartitionDPP(L, parts, counts), seed=1)
        results[k] = (par.report.rounds, seq.report.rounds)
        rows.append([str(counts), k, par.report.rounds, seq.report.rounds,
                     f"{seq.report.rounds / par.report.rounds:.2f}x",
                     par.report.ratio_violations])

    print_table(
        "E6 (Theorem 9): Partition-DPP parallel depth, r=2 parts of 8, c=0.25",
        ["quotas", "k", "parallel rounds", "sequential rounds", "speedup", "ratio violations"],
        rows,
    )
    print("Depth grows sublinearly in k while the sequential reduction is exactly 2k rounds;")
    print("every sampled slate satisfies the per-part quota constraints by construction.")

    record(benchmark, **{f"speedup_k{k}": seq / par for k, (par, seq) in results.items()})
    benchmark.pedantic(
        lambda: sample_partition_dpp_parallel(L, parts, (2, 2), config=config, seed=2),
        rounds=1, iterations=1)
    largest_k = max(results)
    assert results[largest_k][0] < results[largest_k][1]


def test_e6_three_part_constraint(benchmark):
    """r = 3 parts (the oracle's torus grows but r stays O(1))."""
    L, parts = clustered_ensemble([5, 5, 4], within=0.6, across=0.05, scale=1.5, seed=3)
    config = EntropicSamplerConfig(c=0.3, epsilon=0.1)
    counts = (2, 1, 1)
    result = benchmark.pedantic(
        lambda: sample_partition_dpp_parallel(L, parts, counts, config=config, seed=4),
        rounds=1, iterations=1)
    tallies = [len(set(result.subset) & set(p)) for p in parts]
    print(f"\nE6b: r=3 Partition-DPP sample {result.subset} with per-part tallies {tallies} "
          f"(target {list(counts)}), {result.report.rounds} rounds.")
    record(benchmark, rounds=result.report.rounds)
    assert tallies == list(counts)
