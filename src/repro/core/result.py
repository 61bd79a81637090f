"""Result containers returned by every sampler in :mod:`repro.core` and
:mod:`repro.planar`.

``SamplerReport`` carries the PRAM accounting (rounds / work / oracle calls /
machines) plus algorithm-specific statistics (batch sizes, acceptance rates,
density-ratio violations) so benchmarks can regenerate the paper's scaling
claims directly from sampler outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.pram.tracker import Tracker


@dataclass
class SamplerReport:
    """Cost and diagnostic report of one sampler execution."""

    #: adaptive parallel rounds (the paper's parallel time up to Õ(1) factors)
    rounds: int = 0
    #: total work charged across all simulated machines
    work: float = 0.0
    #: number of counting-oracle / determinant queries issued
    oracle_calls: int = 0
    #: largest number of machines active in any single round
    peak_machines: float = 0.0
    #: sizes of the accepted batches, in order
    batch_sizes: List[int] = field(default_factory=list)
    #: per-batch acceptance probability estimates (accepted / proposed)
    acceptance_rates: List[float] = field(default_factory=list)
    #: number of proposals whose density ratio exceeded the rejection constant
    #: (the "bad set" of Algorithm 3 / modified rejection sampling)
    ratio_violations: int = 0
    #: total proposals examined
    proposals: int = 0
    #: True if the sampler had to give up on some round (Theorem 10's
    #: failure event); the returned sample is then best-effort
    failed: bool = False
    #: free-form extra diagnostics
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_tracker(cls, tracker: Tracker, **kwargs) -> "SamplerReport":
        snap = tracker.snapshot()
        return cls(
            rounds=snap["rounds"],
            work=snap["work"],
            oracle_calls=snap["oracle_calls"],
            peak_machines=snap["peak_machines"],
            **kwargs,
        )

    def update_from_tracker(self, tracker: Tracker) -> None:
        snap = tracker.snapshot()
        self.rounds = snap["rounds"]
        self.work = snap["work"]
        self.oracle_calls = snap["oracle_calls"]
        self.peak_machines = snap["peak_machines"]

    @property
    def mean_acceptance(self) -> float:
        """Average per-batch acceptance probability (1.0 when no batches ran)."""
        if not self.acceptance_rates:
            return 1.0
        return float(sum(self.acceptance_rates) / len(self.acceptance_rates))


@dataclass
class SampleResult:
    """A sampled subset together with its cost report."""

    #: the sampled subset, as a sorted tuple of original ground-set labels
    subset: Tuple[int, ...]
    #: PRAM/diagnostic report for this execution
    report: SamplerReport

    def __iter__(self):
        return iter(self.subset)

    def __len__(self) -> int:
        return len(self.subset)

    def __contains__(self, item: int) -> bool:
        return item in self.subset
