"""Theorem 8: parallel sampling from nonsymmetric DPPs and k-DPPs.

Nonsymmetric DPPs are ``O(1)``-fractionally log-concave (Lemma 24), hence
entropically independent (Lemma 23), so Theorem 29's meta-sampler applies;
this module provides the two instantiations of Theorem 8:

1. k-DPPs defined by an nPSD matrix (``Õ(√k (k/ε)^c)`` depth), whose
   counting oracle reads ``det(I + zL)``'s coefficients off torus tables
   built once per sample (:class:`repro.dpp.nonsymmetric.NonsymmetricKDPP`,
   the one-part Partition-DPP; ``n ≤ 406``);
2. unconstrained nonsymmetric DPPs (sample the cardinality first as in
   Remark 15, then run the k-DPP sampler; ``Õ(√n (n/ε)^c)`` depth), with
   the same ``n ≤ 406``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.entropic import EntropicSamplerConfig, sample_entropic_parallel
from repro.core.result import SampleResult
from repro.core.symmetric import sample_by_cardinality
from repro.dpp.nonsymmetric import NonsymmetricDPP, NonsymmetricKDPP
from repro.dpp.partition import check_grid_budget
from repro.engine import BackendLike
from repro.pram.tracker import Tracker
from repro.utils.rng import SeedLike


def sample_nonsymmetric_kdpp_parallel(L: np.ndarray, k: int, *,
                                      config: Optional[EntropicSamplerConfig] = None,
                                      seed: SeedLike = None,
                                      tracker: Optional[Tracker] = None,
                                      backend: BackendLike = None) -> SampleResult:
    """Theorem 8.1: approximate parallel sample from the nPSD k-DPP."""
    distribution = NonsymmetricKDPP(L, k)
    return sample_entropic_parallel(distribution, config, seed, tracker=tracker, backend=backend)


def sample_nonsymmetric_dpp_parallel(L: np.ndarray, *,
                                     config: Optional[EntropicSamplerConfig] = None,
                                     seed: SeedLike = None,
                                     tracker: Optional[Tracker] = None,
                                     backend: BackendLike = None) -> SampleResult:
    """Theorem 8.2: approximate parallel sample from the unconstrained nPSD DPP.

    The cardinality is sampled exactly from its distribution (computable in one
    round via the characteristic polynomial, Proposition 13.2), then the k-DPP
    sampler runs with the same entropic configuration.  ``n > 406`` raises
    :class:`~repro.dpp.partition.InterpolationGridTooLarge` before any draw.
    """
    distribution = NonsymmetricDPP(L)
    check_grid_budget((distribution.n + 1,), distribution.n)
    return sample_by_cardinality(
        distribution.cardinality_distribution,
        lambda k, rng, trk: sample_nonsymmetric_kdpp_parallel(
            distribution.L, k, config=config, seed=rng, tracker=trk, backend=backend),
        seed, tracker)
