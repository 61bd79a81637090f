"""Cost model describing how primitives are charged to the PRAM accounting.

The paper charges (Proposition 13, [Csa75], [Ber84]):

* a determinant / characteristic polynomial of an ``n x n`` matrix:
  ``Õ(1)`` parallel depth, ``poly(n)`` work;
* a *batch* of independent counting-oracle queries issued in the same adaptive
  round: 1 round of depth total, work proportional to the number of queries;
* one step of the sequential sampling-to-counting reduction: 1 round.

:class:`CostModel` centralizes the work polynomials so they can be swapped (for
ablations) without touching samplers.  ``Õ(·)`` hides polylog factors; by
default we charge ``n**omega`` work per determinant with ``omega = 3`` (the
work of the Faddeev–LeVerrier scheme is ``O(n^4)``; Csanky-style inversion can
be done with ``O(n^omega)`` processors — the exponent does not affect any of
the *depth* claims the experiments reproduce).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class OracleCostHint:
    """Structural cost facts a distribution reports about its oracle batches.

    The engine's :class:`~repro.engine.planner.RoundPlanner` combines this
    hint with the PRAM :class:`CostModel` and calibrated wall-clock
    coefficients to estimate what one batch costs on each execution backend.
    The hint states *structure*, not seconds — seconds are host-specific and
    come from calibration.

    Attributes
    ----------
    matrix_order:
        Size of the matrix each query factorizes (the ``n`` fed to
        :meth:`CostModel.determinant_work`).
    python_fraction:
        Fraction of one query's work spent in GIL-bound interpreted Python
        (ESP recursions, charpoly minor sums, per-subset interpolation
        grids) rather than inside GIL-releasing LAPACK calls.  ``0`` means
        pure stacked linear algebra; ``1`` means a pure-Python loop.
    batch_vectorized:
        Whether ``counting_batch`` answers the whole round with stacked
        NumPy calls (``True`` for the structured oracles) or falls back to
        the generic scalar loop (``False``), in which case the vectorized
        backend degenerates to the serial one.
    rank:
        When set, the oracle works on a rank-``rank`` factorization of the
        ``matrix_order``-sized kernel rather than the dense matrix: a query
        costs ``n·r² + r^ω`` work (reduce to the ``r x r`` dual Gram, then
        factorize it) instead of ``n^ω``.  ``None`` means dense.
    update_depth:
        Length of the incremental-update chain behind this kernel's cached
        artifacts (``0`` for a cold factorization).  Dense artifacts patched
        through the secular equation accumulate ``O(ε)`` rounding per patch,
        so past the break-even depth
        (:meth:`CalibratedCostModel.update_break_even_depth`) the planner
        prefers a fresh refactorization — the cumulative patch work has paid
        for one by then, making the refresh amortized-free.
    """

    matrix_order: int
    python_fraction: float = 0.0
    batch_vectorized: bool = True
    rank: Optional[int] = None
    update_depth: int = 0


@dataclass(frozen=True)
class CostModel:
    """Work/depth charge schedule for PRAM primitives.

    Attributes
    ----------
    determinant_exponent:
        Work of one ``n x n`` determinant / marginal-kernel evaluation is
        ``n ** determinant_exponent``.
    determinant_depth:
        Parallel depth charged for one determinant evaluation.  The paper
        treats this as ``Õ(1)``; we charge ``1`` so that "rounds" directly
        measures the number of *adaptive* stages, the quantity all theorems
        bound.
    oracle_depth:
        Depth of one batched block of counting-oracle queries (``Õ(1)``).
    """

    determinant_exponent: float = 3.0
    determinant_depth: int = 1
    oracle_depth: int = 1

    def determinant_work(self, n: int) -> float:
        """Work charged for a determinant of an ``n x n`` matrix."""
        return float(max(n, 1)) ** self.determinant_exponent

    def oracle_query_work(self, n: int, queries: int = 1) -> float:
        """Work charged for ``queries`` independent counting-oracle queries."""
        return queries * self.determinant_work(n)


DEFAULT_COST_MODEL = CostModel()


# ---------------------------------------------------------------------- #
# wall-clock extension: abstract work units -> estimated seconds
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class WallClockCoefficients:
    """Host-specific conversion rates from PRAM work units to seconds.

    ``seconds_per_flop_unit`` prices one unit of :meth:`CostModel`
    determinant work executed inside LAPACK; ``seconds_per_python_unit``
    prices the same unit executed as GIL-bound interpreted Python;
    ``seconds_per_shipped_byte`` prices moving one payload byte out of
    process (content fingerprint + shared-memory copy, the dominant costs of
    :meth:`repro.engine.shm.SharedArrayStore.publish`) so wide matrix-backed
    rounds charge their first-shipment publication explicitly.  All are
    measured by :func:`calibrate_wall_clock` (microbenchmarks, once per
    process) — the absolute values are crude, but routing decisions only
    need the *ratios* between backends to be roughly right, and those are
    dominated by the separately measured per-backend dispatch overheads.
    """

    seconds_per_flop_unit: float = 2e-9
    seconds_per_python_unit: float = 2e-7
    seconds_per_shipped_byte: float = 1e-9


@dataclass(frozen=True)
class CalibratedCostModel(CostModel):
    """A :class:`CostModel` that can also price work in estimated seconds.

    The PRAM model prices *work* in abstract machine operations — exactly
    what the depth/work theorems need, and deliberately blind to wall-clock.
    The execution planner, however, must compare "run this round's Python
    work in-process" against "pay a process pool's IPC round-trip", which is
    a *seconds* comparison.  This subclass keeps the PRAM charging schedule
    untouched (trackers built from it behave identically) and adds the
    calibrated conversion used only for backend routing.
    """

    coefficients: WallClockCoefficients = field(default_factory=WallClockCoefficients)

    def _query_flop_unit(self, hint: OracleCostHint) -> float:
        """Work units of one query's LAPACK lane under ``hint``'s structure.

        Dense oracles pay the full ``n^ω`` determinant; a rank-``r``
        factor-backed oracle pays ``n·r² + r^ω`` (reduce to the dual Gram,
        factorize the ``r x r`` reduction) — the asymmetry that makes the
        planner route huge-``n`` low-rank rounds as cheap ones.
        """
        if hint.rank is not None:
            n = float(max(hint.matrix_order, 1))
            r = max(int(hint.rank), 1)
            return n * r * r + self.determinant_work(r)
        return self.determinant_work(hint.matrix_order)

    # ------------------------------------------------------------------ #
    # incremental-update pricing (streaming kernels)
    # ------------------------------------------------------------------ #
    def update_patch_work(self, hint: OracleCostHint) -> float:
        """Work units of patching cached artifacts after ONE rank-1 update.

        Dense: the secular eigen-update and Sherman–Morrison kernel patch
        are ``O(n²)`` apiece (the eigenvector column transform is a matmul,
        far below ``eigh``'s constant).  Factor-backed: row append/delete on
        the factor plus recomputing the ``k``-sized artifacts, ``n·r² + r^ω``.
        """
        n = float(max(hint.matrix_order, 1))
        if hint.rank is not None:
            r = max(int(hint.rank), 1)
            return n * r * r + self.determinant_work(r)
        return n * n

    def refactorization_work(self, hint: OracleCostHint) -> float:
        """Work units of rebuilding the factorization cold after a mutation."""
        return self._query_flop_unit(hint)

    def update_break_even_depth(self, hint: OracleCostHint, *,
                                cap: int = 64) -> int:
        """Update-log depth past which a fresh refactorization is preferred.

        Dense spectra patched through the secular equation accumulate
        ``O(ε)`` rounding per patch; once the *cumulative* patch work rivals
        one cold factorization (``≈ n`` patches of ``n²`` against one
        ``n³``), a refresh is amortized-free and resets the drift, so that
        ratio — capped at ``cap`` for chain hygiene — is the break-even.
        Factor-backed patches are *exact* (row append/delete on ``B``), so
        they never need a drift refresh and run straight to the cap.
        """
        limit = max(int(cap), 1)
        if hint.rank is not None:
            return limit
        patch = self.update_patch_work(hint)
        refactor = self.refactorization_work(hint)
        return max(1, min(limit, int(refactor / max(patch, 1.0))))

    def _python_work(self, hint: OracleCostHint, queries: int) -> float:
        """Work units of the batch's GIL-bound (interpreted Python) lane.

        When the batch oracle vectorizes, the interpreted share is the
        per-query bookkeeping around the stacked LAPACK calls — one order
        below the flop work, so it is priced at ``matrix_order^(omega-1)``
        for dense oracles and ``matrix_order·rank`` for factor-backed ones.
        A non-vectorized (generic scalar-loop) oracle keeps its full flop
        unit in the interpreter.
        """
        fraction = min(max(hint.python_fraction, 0.0), 1.0)
        if hint.batch_vectorized:
            if hint.rank is not None:
                unit = float(max(hint.matrix_order, 1)) * max(int(hint.rank), 1)
            else:
                exponent = max(self.determinant_exponent - 1.0, 1.0)
                unit = float(max(hint.matrix_order, 1)) ** exponent
        else:
            unit = self._query_flop_unit(hint)
        return queries * unit * fraction

    def estimate_batch_seconds(self, hint: OracleCostHint, queries: int) -> float:
        """Estimated single-lane seconds to answer ``queries`` oracle queries.

        Splits the batch between the LAPACK lane (the
        ``(1 - python_fraction)`` share of the structural flop work) and
        the interpreted-Python lane (see :meth:`_python_work`), pricing each
        with its calibrated coefficient.
        """
        fraction = min(max(hint.python_fraction, 0.0), 1.0)
        flop_work = queries * self._query_flop_unit(hint) * (1.0 - fraction)
        return (self._python_work(hint, queries) * self.coefficients.seconds_per_python_unit
                + flop_work * self.coefficients.seconds_per_flop_unit)

    def python_seconds(self, hint: OracleCostHint, queries: int) -> float:
        """Estimated seconds of the batch's GIL-bound (Python-lane) share."""
        return self._python_work(hint, queries) * self.coefficients.seconds_per_python_unit

    def shipping_seconds(self, nbytes: int) -> float:
        """Estimated seconds to publish ``nbytes`` of payload out of process."""
        return max(int(nbytes), 0) * self.coefficients.seconds_per_shipped_byte


def _probe_flop_seconds_per_unit(model: CostModel, order: int = 48, repeats: int = 3) -> float:
    """Seconds per determinant-work unit through one LAPACK factorization."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((order, order))
    a = a @ a.T + order * np.eye(order)
    np.linalg.slogdet(a)  # warm the LAPACK path once
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.slogdet(a)
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9) / model.determinant_work(order)


def _probe_python_seconds_per_unit(model: CostModel, order: int = 24, repeats: int = 3) -> float:
    """Seconds per work unit through an interpreted (GIL-bound) loop.

    The loop mimics the shape of the pure-Python oracle paths (per-element
    arithmetic over an ``order``-sized recursion) so the coefficient lands in
    the right decade for ESP tables / charpoly sums / interpolation grids.
    """
    best = float("inf")
    steps = int(model.determinant_work(order))
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0.0
        for i in range(steps):
            acc += (i % 7) * 1e-3
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9) / model.determinant_work(order)


def _probe_ship_seconds_per_byte(nbytes: int = 1 << 18, repeats: int = 3) -> float:
    """Seconds per byte of one out-of-process payload publication.

    Publication = content fingerprint (SHA-256 over the raw bytes) + one
    copy into the shared-memory segment; the probe times exactly those two
    operations on a ``nbytes`` buffer, so the coefficient tracks the real
    :meth:`~repro.engine.shm.SharedArrayStore.publish` cost without touching
    ``/dev/shm`` (which may be unavailable where calibration still runs).
    """
    import numpy as np

    from repro.utils.fingerprint import array_fingerprint

    buffer = np.zeros(nbytes // 8, dtype=float)
    target = np.empty_like(buffer)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        array_fingerprint(buffer)
        np.copyto(target, buffer)
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9) / buffer.nbytes


#: per-process probe cache, keyed by the work exponent the probes were
#: normalized under — coefficients measured for one schedule are meaningless
#: for a model with a different ``determinant_exponent``
_CALIBRATED: dict = {}


def calibrate_wall_clock(model: CostModel = DEFAULT_COST_MODEL, *,
                         refresh: bool = False) -> WallClockCoefficients:
    """Measure (once per process and work schedule) work-unit → seconds rates.

    The probes cost a few milliseconds and are cached for the process
    lifetime per ``determinant_exponent``; ``refresh=True`` re-measures
    (e.g. after pinning BLAS threads).  Used by
    :func:`calibrated_cost_model` and the engine's
    :class:`~repro.engine.planner.RoundPlanner`.
    """
    key = float(model.determinant_exponent)
    if refresh or key not in _CALIBRATED:
        _CALIBRATED[key] = WallClockCoefficients(
            seconds_per_flop_unit=_probe_flop_seconds_per_unit(model),
            seconds_per_python_unit=_probe_python_seconds_per_unit(model),
            seconds_per_shipped_byte=_probe_ship_seconds_per_byte(),
        )
    return _CALIBRATED[key]


def calibrated_cost_model(model: CostModel = DEFAULT_COST_MODEL) -> CalibratedCostModel:
    """``model`` extended with this host's calibrated wall-clock coefficients.

    Passing an already-:class:`CalibratedCostModel` returns it unchanged, so
    callers can thread a hand-built model (e.g. in tests) through the
    planner without it being re-calibrated.
    """
    if isinstance(model, CalibratedCostModel):
        return model
    return CalibratedCostModel(
        determinant_exponent=model.determinant_exponent,
        determinant_depth=model.determinant_depth,
        oracle_depth=model.oracle_depth,
        coefficients=calibrate_wall_clock(model),
    )
