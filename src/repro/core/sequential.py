"""The classic sequential sampling-to-counting reduction [JVV86].

One element per adaptive round: compute the conditional marginals of the
current distribution, pick one element proportionally, condition, repeat — the
``Θ(k)``-depth baseline that every parallel sampler in this package is
measured against (Section 1, "the classic reduction ... is inherently
sequential").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.result import SampleResult, SamplerReport
from repro.distributions.base import SubsetDistribution
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator, weighted_choice


def sequential_sample(distribution: SubsetDistribution, seed: SeedLike = None, *,
                      tracker: Optional[Tracker] = None) -> SampleResult:
    """Draw one exact sample via the element-at-a-time [JVV86] reduction.

    Requires a fixed-cardinality distribution (``distribution.cardinality``
    not ``None``); unconstrained DPPs should first sample their cardinality
    (Remark 15) and call this on the resulting k-DPP.  The distribution is
    conditioned after every element but the last, which nothing reads.
    """
    k = distribution.cardinality
    if k is None:
        raise ValueError(
            "sequential_sample requires a fixed-cardinality distribution; "
            "sample the cardinality first (Remark 15)"
        )
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    chosen = []
    current = distribution
    report = SamplerReport()
    with use_tracker(trk):
        for _ in range(k):
            # One adaptive round: compute conditional marginals, pick one element.
            marginals = current.marginal_vector()
            weights = np.clip(marginals, 0.0, None)
            total = weights.sum()
            if total <= 0:
                raise RuntimeError("conditional marginals sum to zero; distribution is degenerate")
            probs = weights / total
            with trk.round("sequential-pick"):
                trk.charge(machines=1.0)
                element = weighted_choice(rng, probs)
            chosen.append(current.ground_labels[element])
            if len(chosen) < k:
                current = current.condition((element,))
            report.batch_sizes.append(1)
    report.update_from_tracker(trk)
    return SampleResult(subset=tuple(sorted(chosen)), report=report)
