"""Linear algebra substrate.

The paper's counting oracles reduce to determinants and Schur complements,
which Csanky put in ``NC`` [Csa75, Ber84]; the tracker charges each
determinant as ``n³`` work.  This package implements those primitives with
NumPy/SciPy (vectorized, batched where possible) and charges the PRAM
tracker for them.
"""

from repro.linalg.determinant import principal_minor
from repro.linalg.schur import schur_complement, condition_ensemble
from repro.linalg.esp import elementary_symmetric_polynomials
from repro.linalg.batch import (
    conditioned_factor,
    factor_from_eigh,
    grouped_log_principal_minors,
    grouped_principal_minors,
    lowrank_conditioned_gram,
    psd_factor,
    stacked_principal_submatrices,
)
from repro.linalg.updates import KernelUpdate, rank_one_eigh_update, symmetric_rank_one_terms
from repro.linalg.psd import (
    is_psd,
    is_npsd,
    random_orthogonal,
    symmetrize,
    psd_sqrt,
)

__all__ = [
    "principal_minor",
    "schur_complement",
    "condition_ensemble",
    "elementary_symmetric_polynomials",
    "conditioned_factor",
    "grouped_log_principal_minors",
    "grouped_principal_minors",
    "lowrank_conditioned_gram",
    "psd_factor",
    "stacked_principal_submatrices",
    "KernelUpdate",
    "factor_from_eigh",
    "rank_one_eigh_update",
    "symmetric_rank_one_terms",
    "is_psd",
    "is_npsd",
    "random_orthogonal",
    "symmetrize",
    "psd_sqrt",
]
