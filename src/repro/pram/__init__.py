"""PRAM accounting substrate.

The paper states its guarantees in the PRAM model: *parallel time* is the
number of adaptive rounds (each round may issue polynomially many independent
counting-oracle queries / linear-algebra calls that are themselves ``Õ(1)``
parallel depth), and *work* is the total number of machine-operations.

We do not run on a PRAM — all computation executes on the host CPU — but every
sampler in :mod:`repro.core` and :mod:`repro.planar` charges its operations to
a :class:`~repro.pram.tracker.Tracker`, reproducing the accounting the
theorems speak about: one unit of depth per adaptive round, and ``n³`` work
per ``n x n`` determinant (:func:`~repro.pram.tracker.determinant_work`).
Benchmarks then compare *measured rounds* of the parallel samplers against
sequential baselines, which is exactly the quantity Theorem 1/8/9/10/11
bound.
"""

from repro.pram.tracker import (
    Tracker,
    current_tracker,
    determinant_work,
    use_tracker,
)
from repro.pram.schedule import parallel_map, parallel_branches

__all__ = [
    "Tracker",
    "current_tracker",
    "determinant_work",
    "use_tracker",
    "parallel_map",
    "parallel_branches",
]
