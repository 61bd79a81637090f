"""Algorithm 4 / Theorem 41: the filtered sampler for spectrally bounded DPPs.

For an unconstrained symmetric DPP with marginal kernel ``K``:

* if ``λmax(K) ≤ 1/√n``, one round of rejection sampling against independent
  Bernoulli proposals succeeds with acceptance probability ``(1/ε)^{-o(1)}``
  (Lemma 44);
* otherwise set ``α = (λmax(K) √n)^{-1}`` and run ``R = Θ(α^{-1} log(n/ε))``
  filtering rounds (Algorithm 4): each round samples from the DPP with the
  down-scaled kernel ``α K^{(i)}`` (which satisfies the Lemma 44 bound),
  conditions the remaining ensemble on the accepted elements, and scales by
  ``1 - α`` (Proposition 42/43 show the union of the rounds is distributed as
  the original DPP up to ``ε`` total variation).

Combined with the trace route of Remark 15/Theorem 10, this yields the
``Õ(min{√tr K, λmax(K) √n})`` depth of Theorem 41.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.batched import batched_sample
from repro.core.rejection import boosted_rejection_sample
from repro.core.result import SampleResult, SamplerReport
from repro.core.symmetric import kdpp_batched_config, sample_by_cardinality
from repro.dpp.kernels import ensemble_to_kernel, validate_ensemble
from repro.dpp.symmetric import SymmetricDPP
from repro.engine import BackendLike, ExecutionBackend, OracleBatch, resolve_backend
from repro.linalg.schur import condition_ensemble
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator
from repro.utils.subsets import subset_key


def _sample_small_kernel_dpp(K: np.ndarray, epsilon: float, rng: np.random.Generator,
                             tracker: Tracker, report: SamplerReport, *,
                             backend: Optional[ExecutionBackend] = None,
                             machine_cap: int = 4096,
                             max_rounds: int = 12) -> Tuple[int, ...]:
    """Lemma 44: sample a DPP whose kernel satisfies ``λmax(K) ≤ 1/√n``.

    Proposal: independent ``Bernoulli(K_ii)`` inclusion of every element.
    Acceptance ratio: ``μ(T)/ν(T) = det(L_T) det(I-K) / (∏_{i∈T} K_ii ∏_{i∉T}(1-K_ii))``,
    bounded by ``(1/ε)^{o(1)}`` on the high-probability set ``|T| = O(√n log 1/ε)``.
    The per-proposal ``log det(L_T)`` evaluations form one
    :class:`~repro.engine.batch.OracleBatch` per round.
    """
    n = K.shape[0]
    if n == 0:
        return ()
    engine = resolve_backend(backend)
    p = np.clip(np.diag(K).copy(), 0.0, 1.0 - 1e-12)
    eye = np.eye(n)
    residual = eye - K
    sign_res, log_det_res = np.linalg.slogdet(residual)
    if sign_res <= 0:
        raise ValueError("kernel has an eigenvalue at 1; filtering requires λmax(K) < 1")
    L = K @ np.linalg.inv(residual)
    tracker.charge_determinant(n, count=2)
    # Lemma 44's rejection constant: exp(c sqrt(log 1/eps)) with a modest c.
    C = math.exp(2.0 * math.sqrt(max(math.log(1.0 / max(epsilon, 1e-9)), 1.0)))
    size_cap = max(1, int(math.ceil(3.0 * math.sqrt(n) * max(math.log(1.0 / max(epsilon, 1e-9)), 1.0))))
    log_keep = np.log1p(-p)
    with np.errstate(divide="ignore"):
        log_p = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), -np.inf)

    def propose(machines: int, gen: np.random.Generator) -> np.ndarray:
        return gen.random((machines, n)) < p[np.newaxis, :]

    def log_ratio(proposals: np.ndarray) -> np.ndarray:
        inside = np.flatnonzero(proposals.sum(axis=1) <= size_cap)
        subsets = [tuple(np.flatnonzero(proposals[idx]).tolist()) for idx in inside]
        log_dets = engine.execute(
            OracleBatch.log_principal_minors(L, subsets, label="lemma44-log-minors"),
            tracker=tracker,
        ).values
        # proposals outside Ω (too large) are never accepted
        log_ratios = np.full(len(proposals), np.inf)
        log_proposal = np.where(proposals, log_p[np.newaxis, :], log_keep[np.newaxis, :]).sum(axis=1)
        log_ratios[inside] = (log_dets + log_det_res) - log_proposal[inside]
        return log_ratios

    accepted = boosted_rejection_sample(propose, log_ratio, C, max(epsilon, 1e-6), rng,
                                        report, tracker=tracker, max_rounds=max_rounds,
                                        machine_cap=machine_cap)
    if accepted is None:
        return ()
    proposals, index = accepted
    return subset_key(np.flatnonzero(proposals[index]))


def sample_bounded_dpp_filtering(L: np.ndarray, *, epsilon: float = 0.05,
                                 seed: SeedLike = None,
                                 tracker: Optional[Tracker] = None,
                                 strategy: str = "auto",
                                 machine_cap: int = 4096,
                                 backend: BackendLike = None) -> SampleResult:
    """Theorem 41: approximate sampling with depth ``Õ(min{√tr K, λmax(K)√n})``.

    Parameters
    ----------
    strategy:
        ``"auto"`` picks whichever of the two routes promises fewer rounds;
        ``"trace"`` forces the Remark-15 / Theorem-10 route (cardinality
        sampling + √k-depth k-DPP sampler); ``"filter"`` forces Algorithm 4.
    """
    ensemble = validate_ensemble(L, symmetric=True)
    n = ensemble.shape[0]
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    engine = resolve_backend(backend)
    report = SamplerReport()

    with use_tracker(trk):
        K = ensemble_to_kernel(ensemble)
        K = 0.5 * (K + K.T)
        eigenvalues = np.clip(np.linalg.eigvalsh(K), 0.0, 1.0)
        lam_max = float(eigenvalues.max(initial=0.0))
        trace = float(eigenvalues.sum())
        report.extra["lambda_max"] = lam_max
        report.extra["trace"] = trace

        if strategy not in ("auto", "trace", "filter"):
            raise ValueError(f"unknown strategy {strategy!r}")
        use_trace = strategy == "trace" or (
            strategy == "auto" and math.sqrt(max(trace, 1e-12)) <= lam_max * math.sqrt(n)
        )

        if use_trace:
            # Remark 15 + Theorem 10: sample the cardinality; a typical draw has
            # |S| = O(tr K log 1/ε) whp (Lemma 14), so depth is Õ(√tr K).  The
            # DPP's one eigh of L serves the cardinality and the k-DPP.
            dpp = SymmetricDPP(ensemble, validate=False)
            result = sample_by_cardinality(
                dpp.cardinality_distribution,
                lambda k, rng, trk: batched_sample(dpp.restrict_to_size(k),
                                                   kdpp_batched_config(k, epsilon), rng,
                                                   tracker=trk, backend=engine),
                rng, trk)
            result.report.extra.update(report.extra)
            return result

        alpha = 1.0 / (max(lam_max, 1e-12) * math.sqrt(n))
        if alpha >= 1.0:
            # Step (1) of Algorithm 4: the kernel is already small enough.
            subset = _sample_small_kernel_dpp(K, epsilon, rng, trk, report, backend=engine,
                                              machine_cap=machine_cap)
            report.update_from_tracker(trk)
            return SampleResult(subset=subset, report=report)

        rounds = max(1, int(math.ceil((1.0 / alpha) * math.log(max(n, 2) / max(epsilon, 1e-9)))))
        report.extra["alpha"] = alpha
        report.extra["filter_rounds"] = float(rounds)
        chosen: List[int] = []
        labels = tuple(range(n))
        current_L = ensemble.copy()
        epsilon_round = epsilon / rounds
        for _ in range(rounds):
            if current_L.shape[0] == 0:
                break
            current_K = ensemble_to_kernel(current_L)
            current_K = 0.5 * (current_K + current_K.T)
            scaled_K = np.clip(alpha, 0.0, 1.0) * current_K
            batch = _sample_small_kernel_dpp(scaled_K, epsilon_round, rng, trk, report,
                                             backend=engine, machine_cap=machine_cap)
            report.batch_sizes.append(len(batch))
            if batch:
                chosen.extend(labels[i] for i in batch)
            # L^{(i+1)} = ((1 - α) L^{(i)})_{T_i}
            scaled_L = (1.0 - alpha) * current_L
            if batch:
                conditioned, remaining = condition_ensemble(scaled_L, batch)
                current_L = 0.5 * (conditioned + conditioned.T)
                labels = tuple(labels[i] for i in remaining)
            else:
                current_L = scaled_L

    report.update_from_tracker(trk)
    return SampleResult(subset=tuple(sorted(chosen)), report=report)
