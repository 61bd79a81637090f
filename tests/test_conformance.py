"""Statistical conformance of served samples beyond brute-force sizes.

Byte-identity across backends cannot catch an error in a numerical route
that every backend shares.  These tests draw many fixed-seed samples and hold
their empirical inclusion frequencies to exact marginals, with bounds fixed
before looking at the data, so each test is deterministic.
"""

import itertools

import numpy as np
from test_factor_space import gram_route_counts

from repro import KernelRegistry, serve
from repro.distributions.lowrank import LowRankKDPP, LowRankKernel
from repro.dpp.intermediate import (
    lowrank_intermediate_basis,
    proposal_tables,
    sample_dpp_intermediate,
    sample_kdpp_intermediate,
)
from repro.dpp.symmetric import SymmetricKDPP
from repro.workloads import random_low_rank_factor_ensemble, random_psd_ensemble

#: two-sided Bonferroni bound for 120 z-scores at family-wise level 1e-3
#: (per-score level 8.3e-6, normal quantile 4.46); 220 scores at the same
#: bound stay under family-wise level 2e-3
MAX_ABS_Z = 4.5


def _z_scores(hits, probabilities, draws):
    frequencies = hits / draws
    return (frequencies - probabilities) / np.sqrt(probabilities * (1 - probabilities) / draws)


def test_served_theorem10_inclusions_match_exact_marginals():
    n, k, draws = 100, 6, 1500
    L = random_psd_ensemble(n, rank=30, seed=0)
    dist = SymmetricKDPP(L, k)
    pairs = list(itertools.combinations(range(n), 2))
    # exact pair marginals from the per-query eigvalsh route, not the circle
    pair_marginals = gram_route_counts(dist.factor, dist.factor_gram, pairs, k) \
        / dist.partition_function()
    top = np.argsort(pair_marginals)[::-1][:20]
    watched = {pairs[i]: j for j, i in enumerate(top)}

    item_hits = np.zeros(n)
    pair_hits = np.zeros(len(top))
    with serve(L, registry=KernelRegistry()) as session:
        for seed in range(draws):
            subset = sorted(session.sample(k=k, method="parallel", seed=seed,
                                           backend="vectorized").subset)
            assert len(subset) == k
            item_hits[subset] += 1
            for pair in itertools.combinations(subset, 2):
                if pair in watched:
                    pair_hits[watched[pair]] += 1

    item_z = _z_scores(item_hits, dist.marginal_vector(), draws)
    pair_z = _z_scores(pair_hits, pair_marginals[top], draws)
    assert np.abs(item_z).max() <= MAX_ABS_Z, np.abs(item_z).max()
    assert np.abs(pair_z).max() <= MAX_ABS_Z, np.abs(pair_z).max()


def test_served_hkpv_inclusions_match_exact_marginals():
    # the sequential baseline: phase 1's prefix table and phase 2's
    # leverage downdates are one route on every backend
    n, k, draws = 200, 10, 2000
    L = random_psd_ensemble(n, rank=60, seed=0)
    dist = SymmetricKDPP(L, k)
    pairs = list(itertools.combinations(range(n), 2))
    pair_marginals = dist.counting_batch(pairs) / dist.partition_function()
    top = np.argsort(pair_marginals)[::-1][:20]
    watched = {pairs[i]: j for j, i in enumerate(top)}

    item_hits = np.zeros(n)
    pair_hits = np.zeros(len(top))
    with serve(L, registry=KernelRegistry()) as session:
        for seed in range(draws):
            subset = session.sample(k=k, method="spectral", seed=seed).subset
            assert len(subset) == k
            item_hits[list(subset)] += 1
            for pair in itertools.combinations(subset, 2):
                if pair in watched:
                    pair_hits[watched[pair]] += 1

    item_z = _z_scores(item_hits, dist.marginal_vector(), draws)
    pair_z = _z_scores(pair_hits, pair_marginals[top], draws)
    assert np.abs(item_z).max() <= MAX_ABS_Z, np.abs(item_z).max()
    assert np.abs(pair_z).max() <= MAX_ABS_Z, np.abs(pair_z).max()


# --------------------------------------------------------------------------- #
# low-rank intermediate samplers: every item and the 20 most repulsive pairs
# --------------------------------------------------------------------------- #
LOWRANK_N, LOWRANK_RANK, LOWRANK_K, LOWRANK_DRAWS = 200, 16, 8, 8000


def _lowrank_max_z(sample, marginals, pair_marginals):
    """Worst |z| over all item frequencies and over the 20 most repulsive pairs.

    ``pair_marginals`` lists ``P[i, j ∈ S]`` for the pairs of
    ``itertools.combinations(range(n), 2)``; repulsion is ``p_i·p_j − p_ij``.
    """
    n = marginals.size
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    repulsion = marginals[pairs[:, 0]] * marginals[pairs[:, 1]] - pair_marginals
    top = np.argsort(repulsion)[::-1][:20]
    rng = np.random.default_rng(2024)
    included = np.zeros((LOWRANK_DRAWS, n), dtype=bool)
    for row in included:
        row[list(sample(rng))] = True
    first, second = pairs[top].T
    pair_hits = (included[:, first] & included[:, second]).sum(axis=0)
    item_z = _z_scores(included.sum(axis=0), marginals, LOWRANK_DRAWS)
    pair_z = _z_scores(pair_hits, pair_marginals[top], LOWRANK_DRAWS)
    return np.abs(item_z).max(), np.abs(pair_z).max()


def test_lowrank_kdpp_inclusions_match_exact_marginals():
    factor, _ = random_low_rank_factor_ensemble(LOWRANK_N, LOWRANK_RANK, seed=5)
    dist = LowRankKDPP(LowRankKernel(factor), LOWRANK_K)
    pairs = list(itertools.combinations(range(LOWRANK_N), 2))
    pair_marginals = dist.counting_batch(pairs) / dist.partition_function()
    whitened = lowrank_intermediate_basis(factor)
    tables = proposal_tables(whitened[1])
    item_z, pair_z = _lowrank_max_z(
        lambda rng: sample_kdpp_intermediate(factor, LOWRANK_K, rng, whitened=whitened,
                                             tables=tables),
        dist.marginal_vector(), pair_marginals)
    assert item_z <= MAX_ABS_Z, item_z
    assert pair_z <= MAX_ABS_Z, pair_z


def test_lowrank_dpp_inclusions_match_exact_marginals():
    factor, _ = random_low_rank_factor_ensemble(LOWRANK_N, LOWRANK_RANK, seed=5)
    L = factor @ factor.T
    K = np.linalg.solve(np.eye(LOWRANK_N) + L, L)     # marginal kernel
    first, second = np.array(list(itertools.combinations(range(LOWRANK_N), 2))).T
    pair_marginals = K[first, first] * K[second, second] - K[first, second] ** 2
    whitened = lowrank_intermediate_basis(factor)
    tables = proposal_tables(whitened[1])
    item_z, pair_z = _lowrank_max_z(
        lambda rng: sample_dpp_intermediate(factor, rng, whitened=whitened, tables=tables),
        np.diag(K).copy(), pair_marginals)
    assert item_z <= MAX_ABS_Z, item_z
    assert pair_z <= MAX_ABS_Z, pair_z
