"""Sequential spectral (HKPV) samplers for symmetric DPPs and k-DPPs.

These are the standard *sequential* exact samplers (the algorithm implemented
by DPPy), used as baselines: phase 1 selects a random set of eigenvectors,
phase 2 selects one element per chosen eigenvector, conditioning the projection
at every step — an inherently sequential loop of ``|Y|`` rounds, which is
exactly the ``Ω(k)`` depth the paper's batched samplers beat.

Phase 1 walks back through :func:`repro.linalg.esp.esp_prefix_table`.  Each
phase-2 step is one ``projection_step`` :class:`~repro.engine.batch.OracleBatch`
executed through the engine (:func:`repro.linalg.batch.hkpv_projection_step`):
a leverage downdate.  The eigenbasis stays fixed; the round extends the span
of the elements chosen so far by the previously selected element's
Gram–Schmidt residual and subtracts its squared projections from the
leverage scores, which are the next draw's selection weights.  That is the
chain rule of the projection DPP (after Barthelmé–Tremblay–Amblard,
2210.17358), one ``n x m`` matvec per round.
Routing the round through the engine keeps the sampler's depth accounting
where every other sampler's is (one adaptive round per batch), lets the
planner see it, and lets the serving layer's
:class:`~repro.service.scheduler.RoundScheduler` stack the lockstep steps of
concurrent same-kernel requests into one round.  The projection kind has a
single fixed numerical route on every backend, so backend choice (or fusion)
never perturbs a fixed-seed sample.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dpp.kernels import validate_ensemble
from repro.engine import BackendLike, OracleBatch, resolve_backend
from repro.linalg.batch import EighPair, symmetrized_eigh
from repro.linalg.esp import esp_prefix_table
from repro.pram.tracker import current_tracker
from repro.utils.rng import SeedLike, as_generator, weighted_choice
from repro.utils.subsets import subset_key


def _resolve_eigh(ensemble: np.ndarray, eigh: Optional[EighPair]) -> EighPair:
    if eigh is None:
        return symmetrized_eigh(ensemble)
    eigenvalues, eigenvectors = eigh
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    eigenvectors = np.asarray(eigenvectors, dtype=float)
    n = ensemble.shape[0]
    if eigenvalues.shape != (n,) or eigenvectors.shape != (n, n):
        raise ValueError(
            f"precomputed eigh has shapes {eigenvalues.shape}/{eigenvectors.shape}, "
            f"expected ({n},)/({n}, {n})"
        )
    # callers may pass a raw np.linalg.eigh(L) pair; enforce the clipped-
    # spectrum contract (a no-op on symmetrized_eigh output)
    return np.clip(eigenvalues, 0.0, None), eigenvectors


def _phase_two(vectors: np.ndarray, seed: SeedLike = None, *,
               backend: BackendLike = None) -> Tuple[int, ...]:
    """HKPV phase 2: sample one element per selected eigenvector.

    ``vectors`` has shape ``(n, m)`` — an orthonormal basis of the selected
    eigenspace, fixed for the whole chain.  Each of the ``m`` iterations is
    one ``projection_step`` engine round: it takes the previous round's
    ``(spans, leverages)`` state, folds in the last selected element's
    direction and returns the downdated leverage scores, which the draw
    reads after clipping at zero.  So depth accounting is one adaptive round
    per step, and the rounds are visible to the planner and stackable by the
    serving layer's scheduler.  All randomness stays here in the driver; the
    engine round is deterministic.
    """
    rng = as_generator(seed)
    engine = resolve_backend(backend)
    tracker = current_tracker()
    selected: List[int] = []
    last: Optional[int] = None
    state = None
    for _step in range(vectors.shape[1]):
        result = engine.execute(
            OracleBatch.projection_step(
                vectors, eliminate=None if last is None else (last,), state=state,
                label="hkpv-step"),
            tracker=tracker,
        )
        state = result.artifacts["state"]
        try:
            item = weighted_choice(rng, np.clip(result.values, 0.0, None))
        except ValueError as exc:
            raise RuntimeError("spectral sampler ran out of probability mass") from exc
        selected.append(item)
        last = item
    return subset_key(selected)


def sample_dpp_spectral(L: np.ndarray, seed: SeedLike = None, *, validate: bool = True,
                        eigh: Optional[EighPair] = None,
                        backend: BackendLike = None) -> Tuple[int, ...]:
    """Exact sequential sample from the symmetric DPP with ensemble matrix ``L``.

    ``eigh`` optionally supplies a precomputed ``symmetrized_eigh(L)`` pair
    (e.g. from a warm factorization cache); the sampler then skips the
    eigendecomposition while drawing the identical sample for a fixed seed.
    ``backend`` selects how the phase-2 engine rounds execute — wall-clock
    only, never the sample (the projection kind is fixed-route).
    """
    ensemble = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
    rng = as_generator(seed)
    tracker = current_tracker()
    n = ensemble.shape[0]
    with tracker.round("hkpv-eigendecomposition"):
        tracker.charge_determinant(n)
        eigenvalues, eigenvectors = _resolve_eigh(ensemble, eigh)
    include = rng.random(n) < eigenvalues / (1.0 + eigenvalues)
    if not np.any(include):
        return ()
    return _phase_two(eigenvectors[:, include], rng, backend=backend)


def select_kdpp_eigenvectors(eigenvalues: np.ndarray, k: int, seed: SeedLike = None) -> np.ndarray:
    """Phase 1 of the k-DPP sampler: choose exactly ``k`` eigen-indices.

    Works backwards through the eigenvalues using the standard elementary-
    symmetric-polynomial recursion [KT12b] over the prefix table of
    :func:`~repro.linalg.esp.esp_prefix_table`, read as Python floats (the
    same IEEE arithmetic); returns a boolean mask of the selected indices.
    Where ``E[r, m - 1]`` is 0 the step's probability is exactly 1, so no
    denominator the walk reaches is zero.
    """
    rng = as_generator(seed)
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    table = esp_prefix_table(lam, k)
    if table[k, n] <= 0:
        raise ValueError("k-DPP has zero partition function (rank deficient)")
    if not np.isfinite(table[k, n]):
        raise ValueError("k-DPP partition function overflows; rescale the ensemble")
    E, values = table.tolist(), lam.tolist()
    include = np.zeros(n, dtype=bool)
    remaining = k
    for m in range(n, 0, -1):
        if remaining == 0:
            break
        if m == remaining:
            include[:m] = True
            break
        prob = values[m - 1] * E[remaining - 1][m - 1] / E[remaining][m]
        if rng.random() < prob:
            include[m - 1] = True
            remaining -= 1
    return include


def sample_kdpp_spectral(L: np.ndarray, k: int, seed: SeedLike = None, *,
                         validate: bool = True,
                         eigh: Optional[EighPair] = None,
                         backend: BackendLike = None) -> Tuple[int, ...]:
    """Exact sequential sample from the symmetric k-DPP with ensemble matrix ``L``.

    ``eigh`` optionally supplies a precomputed ``symmetrized_eigh(L)`` pair
    and ``backend`` routes the phase-2 engine rounds; see
    :func:`sample_dpp_spectral`.
    """
    ensemble = validate_ensemble(L, symmetric=True) if validate else np.asarray(L, dtype=float)
    rng = as_generator(seed)
    tracker = current_tracker()
    n = ensemble.shape[0]
    if k == 0:
        return ()
    with tracker.round("hkpv-eigendecomposition"):
        tracker.charge_determinant(n)
        eigenvalues, eigenvectors = _resolve_eigh(ensemble, eigh)
    include = select_kdpp_eigenvectors(eigenvalues, k, rng)
    return _phase_two(eigenvectors[:, include], rng, backend=backend)
