"""Elementary symmetric polynomials (ESPs).

The k-DPP partition function is ``e_k(λ_1, ..., λ_n)``, the k-th elementary
symmetric polynomial of the ensemble matrix's eigenvalues [KT12b].  ESPs also
appear in the size distribution of an unconstrained DPP and in the
polynomial-interpolation counting oracle for Partition-DPPs [Cel+16].

We compute them with the standard stable dynamic program (equivalent to
expanding ``∏ (1 + λ_i t)``) and, as an ``NC``-flavoured alternative, from the
characteristic polynomial of the matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.charpoly import char_poly_coefficients
from repro.pram.tracker import current_tracker
from repro.utils.validation import check_square


def elementary_symmetric_polynomials(values: np.ndarray, max_order: Optional[int] = None) -> np.ndarray:
    """All ESPs ``e_0, ..., e_m`` of the last axis of ``values``.

    ``values`` has shape ``(n,)`` or ``(..., n)``, real or complex (the
    spectrum of a nonsymmetric matrix); ``m = max_order`` or ``n``, and
    orders above ``n`` are zero.  The result puts the order axis first:
    ``table[j]`` holds ``e_j`` of every row, so a ``(..., n)`` input gives an
    ``(m + 1, ...)`` table and a 1-D input an ``(m + 1,)`` vector.

    Uses the O(n·m) dynamic program ``e_j <- e_j + x * e_{j-1}``, which is the
    coefficient recurrence of ``∏ (1 + x_i t)`` and is numerically stable for
    nonnegative inputs.  Each row sees the same update order whatever it is
    stacked with, so a stacked call equals per-row calls bitwise.
    """
    vals = np.asarray(values)
    vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
    n = vals.shape[-1]
    m = n if max_order is None else int(max_order)
    if m < 0:
        raise ValueError("max_order must be nonnegative")
    esp = np.zeros((m + 1,) + vals.shape[:-1], dtype=vals.dtype)
    esp[0] = 1.0
    upper = min(m, n)
    for x in np.moveaxis(vals, -1, 0):
        esp[1:upper + 1] = esp[1:upper + 1] + x * esp[0:upper]
    return esp


def esp_from_matrix(matrix: np.ndarray, max_order: Optional[int] = None,
                    method: str = "eigenvalues") -> np.ndarray:
    """ESPs of the eigenvalues of ``matrix``.

    Parameters
    ----------
    method:
        ``"eigenvalues"`` (default, eigh/eig then the stable DP) or
        ``"charpoly"`` (read ESPs off the characteristic polynomial,
        ``e_j = (-1)^j c_j`` — the genuinely NC route, used for cross-checks).
    """
    a = check_square(matrix, "matrix")
    n = a.shape[0]
    current_tracker().charge_determinant(n)
    if method == "charpoly":
        coeffs = char_poly_coefficients(a)
        esp = np.array([(-1.0) ** j * coeffs[j] for j in range(n + 1)])
    elif method == "eigenvalues":
        if n == 0:
            esp = np.array([1.0])
        else:
            if np.allclose(a, a.T):
                eigenvalues = np.linalg.eigvalsh(a)
            else:
                eigenvalues = np.linalg.eigvals(a)
            # a complex-conjugate pair contributes |λ|² to e_2: only the
            # polynomials, never the eigenvalues, may drop their imaginary part
            esp = elementary_symmetric_polynomials(eigenvalues).real
    else:
        raise ValueError(f"unknown method {method!r}")
    if max_order is not None:
        if max_order + 1 <= esp.size:
            return esp[: max_order + 1]
        return np.concatenate([esp, np.zeros(max_order + 1 - esp.size)])
    return esp
