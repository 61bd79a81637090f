"""Theorem 10: exact ``Õ(√k)``-depth sampling of symmetric DPPs and k-DPPs.

The sampler is Algorithm 1 with:

* batch size ``ℓ = ⌈√(2k_i)⌉``,
* rejection constant ``C = ∏_{i<ℓ} k_i/(k_i − i) ≈ exp(ℓ²/2k_i)``, near ``e``
  at this batch (:func:`repro.core.batched.lemma27_constant`) — valid
  globally by Lemma 27 because symmetric (k-)DPPs and their conditionings
  are strongly Rayleigh, hence negatively correlated (Lemmas 16/17), so the
  output is *exact* conditioned on the algorithm not failing,
* per-iteration failure probability ``δ' = δ / (2√k + 1)``; the schedule has
  fewer than ``2√k`` iterations, so a union bound gives overall success
  ``≥ 1 - δ``.

At ``k = 10 / 40 / 100`` the schedule has 3 / 7 / 12 iterations of three
rounds each, against the ``k + 1`` rounds of HKPV.

Unconstrained symmetric DPPs are handled by first sampling the cardinality
(Remark 15) and then running the k-DPP sampler.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.core.batched import BatchedSamplerConfig, batched_sample, lemma27_constant
from repro.core.result import SampleResult, SamplerReport
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.engine import BackendLike
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator


def _theorem10_batch_size(k_remaining: int) -> int:
    """``ℓ = ⌈√(2k_i)⌉``: Lemma 27's exact constant keeps ``C`` near ``e`` there."""
    return int(math.ceil(math.sqrt(2 * k_remaining)))


def kdpp_batched_config(k: int, delta: float = 1e-2) -> BatchedSamplerConfig:
    """The Theorem 10 driver configuration for a symmetric k-DPP.

    One shared construction point: both :func:`sample_symmetric_kdpp_parallel`
    and the serving layer's warm path use it, so the cache-on/off
    seed-identity guarantee cannot drift out of sync with the cold default.
    """
    per_round = max(delta / (2.0 * math.sqrt(max(k, 1)) + 1.0), 1e-12)
    return BatchedSamplerConfig(
        batch_size=_theorem10_batch_size,
        rejection_constant=lemma27_constant,
        delta_per_round=per_round,
    )


def sample_symmetric_kdpp_parallel(L: np.ndarray, k: int, *, delta: float = 1e-2,
                                   seed: SeedLike = None, tracker: Optional[Tracker] = None,
                                   config: Optional[BatchedSamplerConfig] = None,
                                   backend: BackendLike = None) -> SampleResult:
    """Theorem 10.1: exact parallel sample from the k-DPP with PSD ensemble ``L``.

    Parameters
    ----------
    L:
        Symmetric PSD ensemble matrix.
    k:
        Cardinality constraint.
    delta:
        Target failure probability; on failure (recorded via
        ``result.report.failed``) the sampler falls back to sequential steps
        for the failed iteration, so the returned set is always valid.
    """
    distribution = SymmetricKDPP(L, k)
    if config is None:
        config = kdpp_batched_config(k, delta)
    return batched_sample(distribution, config, seed, tracker=tracker, backend=backend)


def sample_by_cardinality(sizes: Callable[[], np.ndarray],
                          sample_k: Callable[[int, np.random.Generator, Tracker], SampleResult],
                          seed: SeedLike = None,
                          tracker: Optional[Tracker] = None) -> SampleResult:
    """Remark 15: draw ``|S|`` from its exact distribution, then the k-DPP.

    ``sizes()`` runs inside the one ``cardinality-sampling`` round, so a
    cold sampler charges computing the distribution to that round.  At
    ``|S| = 0`` the empty set is returned; otherwise ``sample_k(k, rng,
    tracker)`` draws the k-DPP on the same generator and tracker.  Either
    report gains ``extra["sampled_cardinality"]``.  The unconstrained
    samplers of Theorems 8 and 10, the trace route of Theorem 41 and the
    served unconstrained draw all run through here.
    """
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    with use_tracker(trk):
        with trk.round("cardinality-sampling"):
            p = sizes()
            k = int(rng.choice(p.size, p=p))
    result = SampleResult(subset=(), report=SamplerReport.from_tracker(trk)) if k == 0 \
        else sample_k(k, rng, trk)
    result.report.extra["sampled_cardinality"] = float(k)
    return result


def sample_symmetric_dpp_parallel(L: np.ndarray, *, delta: float = 1e-2,
                                  seed: SeedLike = None,
                                  tracker: Optional[Tracker] = None,
                                  backend: BackendLike = None) -> SampleResult:
    """Theorem 10.2: exact parallel sample from the unconstrained symmetric DPP.

    Remark 15 (:func:`sample_by_cardinality`): sample the cardinality
    ``|S|`` from its exact distribution (one constant-depth round: the ESPs
    of the spectrum), then run the k-DPP sampler for that cardinality.  Both
    read the DPP's one ``symmetrized_eigh`` of ``L``
    (:meth:`SymmetricDPP.restrict_to_size`).
    """
    distribution = SymmetricDPP(L)  # validates PSD-ness
    return sample_by_cardinality(
        distribution.cardinality_distribution,
        lambda k, rng, trk: batched_sample(distribution.restrict_to_size(k),
                                           kdpp_batched_config(k, delta), rng,
                                           tracker=trk, backend=backend),
        seed, tracker)
