"""Rejection sampling primitives (Algorithms 2 and 3, Propositions 25/26).

* :func:`boosted_rejection_sample` — the one boosted rejection loop: run
  ``O(C · log(1/δ))`` proposals "in parallel" (one adaptive round), accept
  the first one the coins keep, and retry on failure up to a cap
  (Proposition 25).  Every rejection step in the repository runs it: the
  Algorithm-1 driver :func:`repro.core.batched.batched_sample` (each draw of
  Theorems 8, 9, 10 and 29) and Lemma 44's small-kernel sampler inside
  :func:`repro.core.filtering.sample_bounded_dpp_filtering` (Theorem 41).
* :func:`modified_rejection_round` — one round of the modified scheme of
  Algorithm 3: the ratio bound only holds on a high-probability set ``Ω``;
  proposals whose ratio exceeds ``C`` are declared bad (never accepted) and
  counted, which is what produces the ``O(ε)`` total-variation error of
  Proposition 26.

Both operate on log densities for numerical robustness, and each round
charges one adaptive round to the PRAM tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import SamplerReport
from repro.pram.tracker import Tracker, current_tracker


@dataclass
class RejectionOutcome:
    """Outcome of one modified rejection-sampling round."""

    #: index (into the proposed batch) of the accepted proposal, or ``None``
    accepted_index: Optional[int]
    #: number of proposals examined in this round
    proposals: int
    #: number of proposals whose density ratio exceeded the bound ``C``
    ratio_violations: int
    #: empirical acceptance probability of this round (accepted / proposals)
    acceptance_rate: float

    @property
    def accepted(self) -> bool:
        return self.accepted_index is not None


def machines_for_boosting(C: float, delta: float, *, cap: int = 100_000, floor: int = 4) -> int:
    """Number of parallel machines Proposition 25 uses: ``O(C log(1/δ))``."""
    if C < 1.0:
        C = 1.0
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    count = int(math.ceil(C * math.log(1.0 / delta))) + 1
    return max(floor, min(count, cap))


def modified_rejection_round(log_ratios: np.ndarray, log_C: float, rng: np.random.Generator,
                             *, tracker: Optional[Tracker] = None) -> RejectionOutcome:
    """One adaptive round of (modified) rejection sampling over a batch of proposals.

    Parameters
    ----------
    log_ratios:
        ``log(μ*(x_i) / ν(x_i))`` for each proposal ``x_i`` (``-inf`` for
        proposals outside the target support).
    log_C:
        Log of the rejection constant.  Proposals with ``log_ratio > log_C``
        are the "bad set" of Algorithm 3: they are *never* accepted and are
        counted as ratio violations.
    rng:
        Random generator used for the accept/reject coin flips.

    Returns
    -------
    RejectionOutcome
        The first accepted proposal index (machines are ordered arbitrarily;
        taking the first accepted one is distributionally equivalent to taking
        any fixed rule independent of the values).
    """
    trk = tracker if tracker is not None else current_tracker()
    ratios = np.asarray(log_ratios, dtype=float)
    m = ratios.size
    with trk.round("rejection-round"):
        trk.charge(machines=float(m))
        violations = int(np.sum(ratios > log_C + 1e-12))
        log_accept = ratios - log_C
        # clamp: bad proposals (ratio > C) get acceptance probability 0
        accept_prob = np.where(
            np.isfinite(log_accept),
            np.exp(np.minimum(log_accept, 0.0)),
            0.0,
        )
        accept_prob = np.where(ratios > log_C + 1e-12, 0.0, accept_prob)
        coins = rng.random(m)
        accepted = np.flatnonzero(coins < accept_prob)
        accepted_index = int(accepted[0]) if accepted.size else None
        rate = float(accepted.size) / m if m else 0.0
    return RejectionOutcome(
        accepted_index=accepted_index,
        proposals=m,
        ratio_violations=violations,
        acceptance_rate=rate,
    )


def boosted_rejection_sample(propose: Callable[[int, np.random.Generator], Sequence],
                             log_ratio: Callable[[Sequence], np.ndarray],
                             C: float, delta: float, rng: np.random.Generator,
                             report: SamplerReport, *,
                             tracker: Optional[Tracker] = None,
                             max_rounds: int = 8,
                             machine_cap: int = 100_000) -> Optional[Tuple[Sequence, int]]:
    """Proposition 25/26: boosted (modified) rejection sampling.

    ``propose(count, rng)`` draws ``count`` proposals (any indexable batch);
    ``log_ratio(batch)`` returns the log density ratios of the batch.  One
    round of ``O(C log 1/δ)`` machines succeeds with probability ``1 - δ``;
    if it fails we retry (each retry is another adaptive round) up to
    ``max_rounds`` times — matching the "repeat on failure" remark after
    Theorem 10.  Each round draws its proposals from ``rng`` before its
    coins, and adds its proposals, ratio violations and acceptance rate to
    ``report``.

    Returns ``(batch, index)`` of the accepted proposal, or ``None`` (with
    ``report.failed`` set) if every round failed.
    """
    machines = machines_for_boosting(C, delta, cap=machine_cap)
    log_C = math.log(max(C, 1.0))
    for _ in range(max_rounds):
        batch = propose(machines, rng)
        outcome = modified_rejection_round(log_ratio(batch), log_C, rng, tracker=tracker)
        report.proposals += outcome.proposals
        report.ratio_violations += outcome.ratio_violations
        report.acceptance_rates.append(outcome.acceptance_rate)
        if outcome.accepted:
            return batch, outcome.accepted_index
    report.failed = True
    return None
