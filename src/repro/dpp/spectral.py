"""Sequential spectral (HKPV) samplers for symmetric DPPs and k-DPPs.

These are the standard *sequential* exact samplers (the algorithm implemented
by DPPy), used as baselines: phase 1 selects a random set of eigenvectors,
phase 2 selects one element per chosen eigenvector, conditioning the projection
at every step — an inherently sequential loop of ``|Y|`` rounds, which is
exactly the ``Ω(k)`` depth the paper's batched samplers beat.

Phase 1 of the k-DPP sampler walks back through the eigenvalues, testing at
each one the probability that it is chosen given how many are still to be
chosen.  Those probabilities depend only on the spectrum and ``k``, so
:func:`kdpp_step_table` computes all of them at once from
:func:`repro.linalg.esp.esp_prefix_table`; the serving cache keeps one table
per kernel epoch, and a cold draw builds its own.  The walk reads its
uniforms in blocks (:class:`repro.utils.rng.UniformBlocks`), which leaves the
generator where one ``rng.random()`` per step would.  Each
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
from repro.utils.rng import SeedLike, UniformBlocks, as_generator, weighted_choice
from repro.utils.subsets import subset_key

#: :func:`kdpp_step_table`'s ``(steps, totals)`` pair
StepTable = Tuple[np.ndarray, np.ndarray]


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


def kdpp_step_table(eigenvalues: np.ndarray, k: int) -> StepTable:
    """The probabilities phase 1 tests, for up to ``k`` eigenvectors still to choose.

    Returns ``(steps, totals)``.  ``steps[r - 1, m - 1] = λ_m · E[r - 1, m - 1]
    / E[r, m]`` over the prefix table ``E`` of :func:`esp_prefix_table` is the
    probability that the walk takes eigenvalue ``m`` with ``r`` still to
    choose, computed with the walk's IEEE operations in its order, so each
    entry equals the value a walk over ``E`` itself would compute.
    ``totals[j] = E[j, n] = e_j(λ)`` for ``j ≤ k``.  Row ``j`` of ``E`` does
    not depend on how many rows are built, so a table built to ``k`` serves
    every smaller ``k`` too.  Entries the walk never reaches may be 0/0;
    they are computed without a warning.  ``k x n`` floats.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    table = esp_prefix_table(lam, k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = lam * table[:-1, :-1] / table[1:, 1:]
    return steps, table[:, -1].copy()     # a view would keep all of E alive


def select_kdpp_eigenvectors(eigenvalues: np.ndarray, k: int, seed: SeedLike = None, *,
                             steps: Optional[StepTable] = None) -> np.ndarray:
    """Phase 1 of the k-DPP sampler: choose exactly ``k`` eigen-indices.

    Works backwards through the eigenvalues using the standard elementary-
    symmetric-polynomial recursion [KT12b]: at eigenvalue ``m`` with ``r``
    still to choose, one uniform against :func:`kdpp_step_table`'s
    ``steps[r - 1, m - 1]``.  ``steps`` optionally supplies that table, built
    for these eigenvalues and any ``k' ≥ k`` (e.g. from a warm factorization
    cache); without it the table is built here.  Returns a boolean mask of
    the selected indices.  Where ``E[r, m - 1]`` is 0 the step's probability
    is exactly 1, so no denominator the walk reaches is zero.  The uniforms
    are read in blocks, and the generator is left where one ``rng.random()``
    per step would leave it.
    """
    rng = as_generator(seed)
    n = np.shape(eigenvalues)[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    probs, totals = steps if steps is not None else kdpp_step_table(eigenvalues, k)
    if probs.shape[0] < k or probs.shape[1] != n:
        raise ValueError(f"step table has shape {probs.shape}, expected at least "
                         f"({k}, {n})")
    total = float(totals[k])
    if total <= 0:
        raise ValueError("k-DPP has zero partition function (rank deficient)")
    if not np.isfinite(total):
        raise ValueError("k-DPP partition function overflows; rescale the ensemble")
    include = np.zeros(n, dtype=bool)
    remaining = k
    with UniformBlocks(rng) as uniform:
        for m in range(n, 0, -1):
            if remaining == 0:
                break
            if m == remaining:
                include[:m] = True
                break
            if uniform() < probs.item(remaining - 1, m - 1):
                include[m - 1] = True
                remaining -= 1
    return include


def sample_kdpp_spectral(L: np.ndarray, k: int, seed: SeedLike = None, *,
                         validate: bool = True,
                         eigh: Optional[EighPair] = None,
                         steps: Optional[StepTable] = None,
                         backend: BackendLike = None) -> Tuple[int, ...]:
    """Exact sequential sample from the symmetric k-DPP with ensemble matrix ``L``.

    ``eigh`` optionally supplies a precomputed ``symmetrized_eigh(L)`` pair
    and ``backend`` routes the phase-2 engine rounds; see
    :func:`sample_dpp_spectral`.  ``steps`` optionally supplies the
    :func:`kdpp_step_table` of that pair's eigenvalues, built for any
    ``k' ≥ k``; phase 1 then builds nothing, and draws the identical sample.
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
    include = select_kdpp_eigenvectors(eigenvalues, k, rng, steps=steps)
    return _phase_two(eigenvectors[:, include], rng, backend=backend)
