"""Theorem 9: parallel sampling from Partition-DPPs.

Partition-DPPs with a symmetric PSD ensemble matrix and ``r = O(1)`` parts are
``Ω(1)``-fractionally log-concave [Ali+21] (Lemma 24.2), hence entropically
independent; the meta-sampler of Theorem 29 therefore gives an
``Õ(√k (k/ε)^c)``-depth sampler using the generating-polynomial counting
oracle of [Cel+16], read off a torus DFT in
:class:`repro.dpp.partition.PartitionDPP`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.entropic import EntropicSamplerConfig, sample_entropic_parallel
from repro.core.result import SampleResult
from repro.dpp.partition import PartitionDPP
from repro.engine import BackendLike
from repro.pram.tracker import Tracker
from repro.utils.rng import SeedLike


def sample_partition_dpp_parallel(L: np.ndarray, parts: Sequence[Sequence[int]],
                                  counts: Sequence[int], *,
                                  config: Optional[EntropicSamplerConfig] = None,
                                  seed: SeedLike = None,
                                  tracker: Optional[Tracker] = None,
                                  backend: BackendLike = None) -> SampleResult:
    """Theorem 9: approximate parallel sample from the Partition-DPP.

    Parameters
    ----------
    L:
        Symmetric PSD ensemble matrix.
    parts:
        The partition ``V_1, ..., V_r`` of the ground set (``r = O(1)``).
    counts:
        Required intersection sizes ``c_1, ..., c_r`` (so ``k = Σ c_i``).
    """
    distribution = PartitionDPP(L, parts, counts)
    return sample_entropic_parallel(distribution, config, seed, tracker=tracker, backend=backend)
