"""Algorithm 1: batched sampling via rejection-corrected i.i.d. proposals.

The driver below is the generic engine behind Theorems 8, 9, 10 and 29.  Per
iteration ``i`` it:

1. computes the conditional marginals ``p`` of the current (conditioned)
   distribution — one adaptive round (step highlighted as (*) in the paper
   relies only on marginal/counting access);
2. proposes ``machines`` ordered tuples of ``ℓ = batch_size(k_i)`` i.i.d.
   draws from ``p / k_i`` (the proposal ``μ'_ℓ``);
3. computes the density ratio ``μ*_ℓ(tuple) / μ'_ℓ(tuple)`` for every
   proposal — one batched round of counting-oracle queries — and runs
   (modified) rejection sampling with constant ``C = rejection_constant(k_i, ℓ)``
   (:func:`~repro.core.rejection.boosted_rejection_sample`);
4. conditions the distribution on the accepted batch and recurses on the
   ``k_{i+1} = k_i - ℓ`` remaining elements.

Proposition 28: with ``ℓ = ⌈√k_i⌉`` the loop terminates within ``2√k``
iterations, so the parallel depth is ``O(√k)`` rounds.  Theorem 10's
configuration (:func:`repro.core.symmetric.kdpp_batched_config`) takes
``ℓ = ⌈√(2k_i)⌉`` with Lemma 27's exact constant, and fewer iterations.

Every adaptive round (marginals, density-ratio joint marginals) is expressed
as one :class:`~repro.engine.batch.OracleBatch` and executed by a pluggable
:class:`~repro.engine.backends.ExecutionBackend`, so the simulated parallel
round is an actual vectorized (or threaded) fan-out rather than a Python
loop over scalar ``counting()`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rejection import boosted_rejection_sample
from repro.core.result import SampleResult, SamplerReport
from repro.distributions.base import SubsetDistribution
from repro.distributions.generic import ProductMarginalProposal
from repro.engine import BackendLike, ExecutionBackend, OracleBatch, resolve_backend
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator, weighted_choice
from repro.utils.subsets import binomial, subset_key


def default_batch_size(k_remaining: int) -> int:
    """The paper's schedule: ``ℓ = ⌈√k_i⌉`` (Algorithm 1)."""
    return int(math.ceil(math.sqrt(k_remaining)))


def lemma27_constant(k_remaining: int, ell: int) -> float:
    """Lemma 27's bound ``∏_{i<ℓ} k/(k − i) = k^ℓ (k − ℓ)!/k! ≈ exp(ℓ²/2k)``.

    The density ratio of a distinct ordered ``ℓ``-tuple ``T`` is
    ``P[T ⊆ S] · k^ℓ (k − ℓ)!/(k! ∏ p_t)``, and a negatively correlated μ
    has ``P[T ⊆ S] <= ∏ p_t``.  The bound is attained (``k`` rank-one
    blocks of a rank-``k`` projection kernel), where computed log ratios can
    exceed it by rounding alone, so it carries a relative margin of ``1e-8``.
    """
    k, ell = int(k_remaining), int(ell)  # exact integers: numpy's would overflow
    return k ** ell / math.perm(k, ell) * (1.0 + 1e-8)


def batch_schedule(k: int, batch_size: Callable[[int], int] = default_batch_size) -> List[int]:
    """The sequence of batch sizes Algorithm 1 would use starting from ``k``.

    Proposition 28 guarantees the list has length at most ``2√k`` for the
    default schedule; tests and the E3 benchmark verify this directly.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    sizes: List[int] = []
    remaining = int(k)
    while remaining > 0:
        ell = max(1, min(int(batch_size(remaining)), remaining))
        sizes.append(ell)
        remaining -= ell
    return sizes


@dataclass
class BatchedSamplerConfig:
    """Tuning knobs of the Algorithm 1 driver."""

    #: batch size as a function of the remaining cardinality ``k_i``
    batch_size: Callable[[int], int] = default_batch_size
    #: rejection constant ``C(k_i, ℓ)`` used in step 3.  The default is
    #: Lemma 27's exact bound, valid for negatively correlated distributions;
    #: entropic samplers pass larger constants.
    rejection_constant: Callable[[int, int], float] = lemma27_constant
    #: per-iteration failure probability δ' driving the machine count of
    #: Proposition 25 (``O(C log 1/δ')`` machines per round)
    delta_per_round: float = 1e-2
    #: hard cap on simulated machines per round (memory guard)
    machine_cap: int = 4096
    #: number of retry rounds before an iteration is declared failed; a
    #: failed iteration falls back to sequential single-element steps (the
    #: output stays a valid sample, and ``report.failed`` records it)
    max_rounds_per_batch: int = 12


def _joint_marginals(distribution: SubsetDistribution, subsets: Sequence[Tuple[int, ...]],
                     tracker: Tracker, backend: ExecutionBackend) -> np.ndarray:
    """``P[T ⊆ S]`` for each ``T`` — one :class:`OracleBatch` on ``backend``.

    ``subsets`` are already sorted tuples of ints, so the batch takes them as
    they are.  The normalizer is computed once per batch (cached on the
    request), and the backend decides how the independent queries fan out.
    """
    batch = OracleBatch(kind="joint_marginals", distribution=distribution,
                        subsets=tuple(subsets), label="joint-marginals")
    return backend.execute(batch, tracker=tracker).values


def _log_target_ordered(distribution: SubsetDistribution, tuples: np.ndarray,
                        k_remaining: int, tracker: Tracker,
                        backend: ExecutionBackend) -> np.ndarray:
    """``log μ*_ℓ(tuple)`` for each proposed ordered tuple.

    ``μ*_ℓ(tuple) = μ_ℓ(set) / ℓ!`` with
    ``μ_ℓ(T) = P[T ⊆ S] / C(k, ℓ)`` (Definition 20/21); tuples containing a
    repeated element have zero target density.
    """
    count, ell = tuples.shape
    log_target = np.full(count, -np.inf)
    if ell == 0:
        return np.zeros(count)
    # each row as its set: sorted, so a repeated element sits beside its twin
    ordered = np.sort(tuples, axis=1)
    distinct_indices = np.flatnonzero(np.all(ordered[:, 1:] != ordered[:, :-1], axis=1))
    if distinct_indices.size == 0:
        return log_target
    # one query per distinct set, in order of first appearance
    slots: Dict[Tuple[int, ...], int] = {}
    slot_of = [slots.setdefault(key, len(slots))
               for key in map(tuple, ordered[distinct_indices].tolist())]
    joints = _joint_marginals(distribution, list(slots), tracker, backend)
    log_binom = math.log(binomial(k_remaining, ell))
    log_fact = math.lgamma(ell + 1)
    values = np.array([-math.inf if joint <= 0 else math.log(joint) - log_binom - log_fact
                       for joint in joints.tolist()])
    log_target[distinct_indices] = values[slot_of]
    return log_target


def batched_sample(distribution: SubsetDistribution, config: Optional[BatchedSamplerConfig] = None,
                   seed: SeedLike = None, *, tracker: Optional[Tracker] = None,
                   backend: BackendLike = None) -> SampleResult:
    """Run Algorithm 1 on a fixed-cardinality distribution.

    The distribution must expose the counting-oracle interface of
    :class:`~repro.distributions.base.SubsetDistribution` (conditional
    marginals, joint marginals, conditioning).  The rejection constant in
    ``config`` decides whether the output is exact (valid global bound, e.g.
    Lemma 27 for symmetric DPPs) or ``O(ε)``-approximate (modified rejection
    sampling with a high-probability bound, Theorems 8/9/29).

    Each adaptive round's oracle queries are expressed as one
    :class:`~repro.engine.batch.OracleBatch` and executed by ``backend``
    (defaulting to the one installed via :func:`repro.configure_backend`);
    backend choice changes wall-clock fan-out, never the sampled output.

    The distribution is conditioned after every batch but the last, and in
    the sequential fallback after every element but the last: nothing reads
    a conditioning on the completed sample, so ``len(batch_sizes) - 1``
    conditionings run when no iteration falls back.  The first iteration
    queries ``distribution`` itself, so a served
    :class:`~repro.dpp.symmetric.SymmetricKDPP` answers its marginals and
    normalizer from values it keeps across requests.
    """
    cfg = config if config is not None else BatchedSamplerConfig()
    k = distribution.cardinality
    if k is None:
        raise ValueError("batched_sample requires a fixed-cardinality distribution")
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    engine = resolve_backend(backend)
    report = SamplerReport()
    chosen: List[int] = []
    current = distribution
    remaining = int(k)

    with use_tracker(trk):
        while remaining > 0:
            ell = max(1, min(int(cfg.batch_size(remaining)), remaining))
            # Round 1: conditional marginals of the current distribution.
            marginals = engine.execute(
                OracleBatch.marginal_vector(current, label="conditional-marginals"),
                tracker=trk,
            ).values
            proposal = ProductMarginalProposal(marginals, remaining)
            accepted = boosted_rejection_sample(
                lambda count, gen: proposal.sample_tuples(ell, count, gen),
                lambda tuples: (_log_target_ordered(current, tuples, remaining, trk, engine)
                                - proposal.log_density_tuples(tuples)),
                float(cfg.rejection_constant(remaining, ell)), cfg.delta_per_round,
                rng, report, tracker=trk, max_rounds=cfg.max_rounds_per_batch,
                machine_cap=cfg.machine_cap)

            if accepted is None:
                # Sequential fallback for this iteration: pick ``ell`` elements
                # one at a time (keeps the output a valid sample of the right
                # cardinality; the failure is recorded for the caller).
                fallback: List[int] = []
                inner = current
                for _ in range(ell):
                    inner_marginals = engine.execute(
                        OracleBatch.marginal_vector(inner, label="fallback-marginals"),
                        tracker=trk,
                    ).values
                    probs = np.clip(inner_marginals, 0.0, None)
                    probs = probs / probs.sum()
                    with trk.round("sequential-fallback"):
                        element = weighted_choice(rng, probs)
                    fallback.append(inner.ground_labels[element])
                    if len(fallback) < remaining:  # the sample's last element needs none
                        inner = inner.condition((element,))
                chosen.extend(fallback)
                current = inner
                remaining -= ell
                report.batch_sizes.append(ell)
                continue

            tuples, index = accepted
            accepted_set = subset_key(tuples[index])
            labels = tuple(current.ground_labels[i] for i in accepted_set)
            chosen.extend(labels)
            remaining -= ell
            report.batch_sizes.append(ell)
            if remaining > 0:  # the completed sample needs no conditioning
                current = current.condition(accepted_set)

    report.update_from_tracker(trk)
    return SampleResult(subset=tuple(sorted(chosen)), report=report)
