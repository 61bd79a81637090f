"""Synthetic workload generators used by the examples, tests, and benchmarks."""

from repro.workloads.kernels import (
    random_psd_ensemble,
    random_low_rank_ensemble,
    random_low_rank_factor_ensemble,
    rbf_kernel_ensemble,
    rbf_factor_ensemble,
    clustered_ensemble,
    random_npsd_ensemble,
    bounded_spectrum_ensemble,
    spiked_spectrum_ensemble,
)
from repro.workloads.datasets import synthetic_documents, synthetic_catalog

__all__ = [
    "random_psd_ensemble",
    "random_low_rank_ensemble",
    "random_low_rank_factor_ensemble",
    "rbf_kernel_ensemble",
    "rbf_factor_ensemble",
    "clustered_ensemble",
    "random_npsd_ensemble",
    "bounded_spectrum_ensemble",
    "spiked_spectrum_ensemble",
    "synthetic_documents",
    "synthetic_catalog",
]
