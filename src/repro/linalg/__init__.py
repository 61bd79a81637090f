"""NC-flavoured linear algebra substrate.

The paper's counting oracles reduce to determinants, characteristic
polynomials, and Schur complements — all computable in ``NC`` [Csa75, Ber84].
This package implements those primitives with NumPy/SciPy (vectorized, batched
where possible) and exposes depth/work-aware wrappers that charge the PRAM
tracker.
"""

from repro.linalg.charpoly import faddeev_leverrier, char_poly_coefficients
from repro.linalg.determinant import (
    determinant,
    log_determinant,
    principal_minor,
)
from repro.linalg.schur import schur_complement, condition_ensemble
from repro.linalg.esp import elementary_symmetric_polynomials, esp_from_matrix
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
    project_psd,
    random_orthogonal,
    symmetrize,
    psd_sqrt,
)

__all__ = [
    "faddeev_leverrier",
    "char_poly_coefficients",
    "determinant",
    "log_determinant",
    "principal_minor",
    "schur_complement",
    "condition_ensemble",
    "elementary_symmetric_polynomials",
    "esp_from_matrix",
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
    "project_psd",
    "random_orthogonal",
    "symmetrize",
    "psd_sqrt",
]
