"""Measured execution planning: ``backend="auto"``.

The paper's cost is the adaptive round, and every engine round already
measures its own wall time (:attr:`~repro.engine.batch.OracleBatchResult.wall_time`).
:class:`RoundPlanner` routes rounds on those measurements instead of on a
modelled price.

* A **regime** is ``(kind, family, shape_bucket(n), shape_bucket(queries))``
  — one process-wide planner serves every kernel, so rounds of different
  sizes keep separate books.  For each regime and candidate backend the
  planner keeps the last wall time :meth:`RoundPlanner.observe` received,
  except for the first round a backend runs in a regime: that round pays
  one-time set-up (pool start-up, lazily built artifacts).
* The **reference** backend is ``vectorized`` when it is a candidate, else
  the first candidate.  Fixed-route kinds (``marginal_vector``,
  ``projection_step``: one numerical route on every backend), empty
  batches, and regimes whose reference has no measurement yet
  (``reason="unmeasured"``) run on the reference.
* Any other candidate costs its own measurement when it has one in the
  regime, else the reference's measured time ``T`` with its GIL-bound share
  divided over the lanes the candidate escapes the GIL on, plus the
  candidate's dispatch-overhead prior::

      T · (1 − f + f / lanes) + dispatch_overhead_s

  where ``f`` is the distribution's
  :meth:`~repro.distributions.base.SubsetDistribution.oracle_cost_hint`,
  its GIL-bound share (``0`` for matrix-backed minors) and ``lanes`` is
  ``min(parallelism, queries)`` for a backend that escapes the GIL, ``1``
  otherwise.  The cheapest estimate wins; ties keep the reference.

So a backend is only tried when its guess beats a measured reference round,
and kept only while it measures faster; a pool that measures slower —
including one that cannot start and falls back — is not chosen again in
that regime.

Backend choice never changes *what* a round computes, so ``backend="auto"``
— the process-wide default installed by :mod:`repro.engine.config` —
produces byte-identical fixed-seed samples to every forced backend.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence, Tuple

from repro import obs
from repro.engine.backends import ExecutionBackend
from repro.engine.batch import OracleBatch, OracleBatchResult
from repro.pram.tracker import Tracker

__all__ = ["PlanDecision", "RoundPlanner", "AutoBackend"]

#: batch kinds the planner arbitrates; the other kinds are fixed-route
PLANNED_KINDS = ("counting", "joint_marginals", "log_principal_minors")

#: default candidate backends (``threads`` stays forceable, but never
#: escapes the GIL, so it could only ever be guessed slower)
DEFAULT_CANDIDATES = ("vectorized", "process")

#: the preferred reference backend
REFERENCE = "vectorized"

#: ``(kind, family, shape_bucket(n), shape_bucket(queries))``
Regime = Tuple[str, str, int, int]


def shape_bucket(size: int) -> int:
    """Bucket a size to the next power of two (1, 2, 4, ... 1024, ...)."""
    q = max(1, int(size))
    return 1 << (q - 1).bit_length()


@dataclass(frozen=True)
class PlanDecision:
    """One routing decision (kept in :attr:`RoundPlanner.decisions`)."""

    kind: str
    label: str
    queries: int
    chosen: str
    #: estimated seconds per candidate backend (empty unless the regime's
    #: reference has been measured)
    estimates: Dict[str, float] = field(default_factory=dict)
    #: why the batch skipped estimation ("fixed-route", "empty", "unmeasured")
    reason: str = ""
    #: the regime whose measurements this round feeds (``None`` when the
    #: kind is fixed-route or the batch is empty)
    regime: Optional[Regime] = None


class RoundPlanner:
    """Routes each batch to the candidate with the cheapest measured cost.

    Parameters
    ----------
    candidates:
        Backend names considered for planned kinds, resolved through the
        shared name registry so pooled candidates reuse the same executors
        as explicit ``backend="threads"``/``"process"`` callers.
    backends:
        Optional explicit ``name -> ExecutionBackend`` mapping overriding
        name resolution (tests inject scripted stubs here).
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_measured", "decisions")}

    def __init__(self, *, candidates: Sequence[str] = DEFAULT_CANDIDATES,
                 backends: Optional[Dict[str, ExecutionBackend]] = None):
        self.candidates = tuple(candidates)
        self.reference = REFERENCE if REFERENCE in self.candidates else self.candidates[0]
        self._backends = dict(backends) if backends is not None else None
        self._lock = threading.Lock()
        #: ``(regime, backend) -> last measured seconds``; ``None`` after the
        #: backend's first (set-up) round in the regime
        self._measured: Dict[Tuple[Regime, str], Optional[float]] = {}
        self.decisions: Deque[PlanDecision] = deque(maxlen=64)

    def _backend(self, name: str) -> ExecutionBackend:
        if self._backends is not None:
            return self._backends[name]
        from repro.engine.config import resolve_backend

        return resolve_backend(name)

    @staticmethod
    def _regime(batch: OracleBatch) -> Regime:
        if batch.distribution is not None:
            n = batch.distribution.n
        else:
            assert batch.matrix is not None
            n = batch.matrix.shape[-1]
        return (batch.kind, obs.family_of(batch), shape_bucket(n),
                shape_bucket(len(batch.subsets)))

    @staticmethod
    def _python_fraction(batch: OracleBatch) -> float:
        if batch.distribution is None:
            return 0.0  # matrix-backed minors: stacked LAPACK
        return min(max(batch.distribution.oracle_cost_hint(), 0.0), 1.0)

    def _estimate(self, batch: OracleBatch,
                  measured: Dict[str, Optional[float]]) -> Dict[str, float]:
        """Seconds per candidate, reference first (so ties keep it)."""
        reference_s = measured[self.reference]
        assert reference_s is not None
        fraction = self._python_fraction(batch)
        estimates = {self.reference: reference_s}
        for name, seconds in measured.items():
            if name == self.reference:
                continue
            if seconds is None:
                try:
                    traits = self._backend(name).traits()
                except Exception:
                    continue  # unknown/unconstructible candidate: skip it
                lanes = (max(1, min(traits.parallelism, len(batch.subsets)))
                         if traits.escapes_gil else 1)
                seconds = (reference_s * (1.0 - fraction + fraction / lanes)
                           + traits.dispatch_overhead_s)
            estimates[name] = seconds
        return estimates

    # ------------------------------------------------------------------ #
    def plan(self, batch: OracleBatch) -> Tuple[ExecutionBackend, PlanDecision]:
        """The backend to run ``batch`` on, with its decision."""
        chosen, reason = self.reference, ""
        estimates: Dict[str, float] = {}
        regime: Optional[Regime] = None
        if batch.kind not in PLANNED_KINDS:
            reason = "fixed-route"
        elif not batch.subsets:
            reason = "empty"
        else:
            regime = self._regime(batch)
            with self._lock:
                measured = {name: self._measured.get((regime, name))
                            for name in self.candidates}
            if measured[self.reference] is None:
                reason = "unmeasured"
            else:
                estimates = self._estimate(batch, measured)
                chosen = min(estimates, key=estimates.__getitem__)
        decision = PlanDecision(kind=batch.kind, label=batch.label,
                                queries=batch.n_queries, chosen=chosen,
                                estimates=estimates, reason=reason, regime=regime)
        with self._lock:
            self.decisions.append(decision)
        obs.record_plan(decision)
        return self._backend(chosen), decision

    def choose(self, batch: OracleBatch) -> ExecutionBackend:
        """The backend to run ``batch`` on (see :meth:`plan`)."""
        return self.plan(batch)[0]

    def observe(self, decision: PlanDecision, result: OracleBatchResult) -> None:
        """Record a routed round's measured wall time for its regime.

        The first round each backend runs in a regime only marks it seen;
        later rounds replace the backend's measurement.  Estimated rounds
        also record measured-over-predicted in the metrics registry.
        """
        predicted = decision.estimates.get(decision.chosen)
        if predicted is not None:
            obs.observe_round_cost(decision.chosen, predicted, result.wall_time)
        if decision.regime is None:
            return
        key = (decision.regime, decision.chosen)
        with self._lock:
            self._measured[key] = result.wall_time if key in self._measured else None

    @property
    def last_decision(self) -> Optional[PlanDecision]:
        with self._lock:
            return self.decisions[-1] if self.decisions else None


class AutoBackend(ExecutionBackend):
    """The planner as a backend: every batch runs where :meth:`RoundPlanner.plan` says.

    This is what ``backend="auto"`` (the process-wide default) resolves to.
    Explicit ``backend=`` arguments bypass it entirely — forcing a backend
    is always honored — and the chosen inner backend stamps its own name on
    the :class:`OracleBatchResult`, so reports show where a round actually
    ran; :attr:`planner` keeps the recent :class:`PlanDecision` log.
    """

    name = "auto"

    def __init__(self, planner: Optional[RoundPlanner] = None, *,
                 candidates: Optional[Sequence[str]] = None):
        if planner is not None and candidates is not None:
            raise ValueError("pass either a ready planner or its options, not both")
        self.planner = planner if planner is not None else RoundPlanner(
            candidates=tuple(candidates) if candidates is not None
            else DEFAULT_CANDIDATES)

    def execute(self, batch: OracleBatch, *, tracker: Optional[Tracker] = None) -> OracleBatchResult:
        backend, decision = self.planner.plan(batch)
        result = backend.execute(batch, tracker=tracker)
        self.planner.observe(decision, result)
        return result
