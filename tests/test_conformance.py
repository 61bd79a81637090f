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
from repro.dpp.symmetric import SymmetricKDPP
from repro.workloads import random_psd_ensemble

#: two-sided Bonferroni bound for 120 z-scores at family-wise level 1e-3
#: (per-score level 8.3e-6, normal quantile 4.46)
MAX_ABS_Z = 4.5


def _z_scores(hits, probabilities, draws):
    frequencies = hits / draws
    return (frequencies - probabilities) / np.sqrt(probabilities * (1 - probabilities) / draws)


def test_served_theorem10_inclusions_match_exact_marginals():
    n, k, draws = 100, 6, 600
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
