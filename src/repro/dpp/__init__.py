"""Determinantal point process substrate.

Implements the distribution classes of Definitions 3–7 of the paper together
with their ``NC``-style counting oracles:

* :class:`~repro.dpp.symmetric.SymmetricDPP` / ``SymmetricKDPP`` — PSD ensemble
  matrices (Definition 3, 6).
* :class:`~repro.dpp.nonsymmetric.NonsymmetricDPP` / ``NonsymmetricKDPP`` —
  nPSD ensemble matrices (Definitions 4–6); the k-DPP is the one-part
  ``PartitionDPP``.
* :class:`~repro.dpp.partition.PartitionDPP` — partition-constrained DPPs
  (Definition 7) with the generating-polynomial counting oracle of
  [Cel+16], read off a torus DFT; conditioned children read their root's
  tables.
* :mod:`repro.dpp.spectral` — the sequential HKPV spectral sampler (the
  DPPy-style baseline).
* :mod:`repro.dpp.exact` — brute-force enumeration for ground truth.
"""

# Import repro.distributions before repro.dpp.symmetric: its lowrank module
# subclasses SymmetricDPP and SymmetricKDPP, and dpp.symmetric imports
# repro.distributions.base.
# Started from here, repro.distributions would otherwise reach lowrank while
# dpp.symmetric is only half-initialized.
import repro.distributions  # noqa: F401
from repro.dpp.kernels import (
    ensemble_to_kernel,
    kernel_to_ensemble,
    validate_ensemble,
    validate_kernel,
)
from repro.dpp.likelihood import dpp_log_unnormalized
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.dpp.nonsymmetric import NonsymmetricDPP, NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.spectral import (
    sample_dpp_spectral,
    sample_kdpp_spectral,
    select_kdpp_eigenvectors,
    symmetrized_eigh,
)
from repro.dpp.exact import exact_dpp_distribution, exact_kdpp_distribution
from repro.dpp.intermediate import (
    lowrank_intermediate_basis,
    sample_dpp_intermediate,
    sample_kdpp_intermediate,
)

__all__ = [
    "lowrank_intermediate_basis",
    "sample_dpp_intermediate",
    "sample_kdpp_intermediate",
    "ensemble_to_kernel",
    "kernel_to_ensemble",
    "validate_ensemble",
    "validate_kernel",
    "dpp_log_unnormalized",
    "SymmetricDPP",
    "SymmetricKDPP",
    "NonsymmetricDPP",
    "NonsymmetricKDPP",
    "PartitionDPP",
    "sample_dpp_spectral",
    "sample_kdpp_spectral",
    "select_kdpp_eigenvectors",
    "symmetrized_eigh",
    "exact_dpp_distribution",
    "exact_kdpp_distribution",
]
