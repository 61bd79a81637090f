"""Depth/work tracker implementing the PRAM accounting.

A :class:`Tracker` accumulates

* ``rounds`` — the number of adaptive parallel rounds (the paper's "parallel
  time" up to ``Õ(1)`` factors inside each round),
* ``work`` — total operations across all simulated machines,
* ``oracle_calls`` — number of counting-oracle queries issued,
* ``peak_machines`` — the largest number of machines used in any single round.

Samplers open rounds with :meth:`Tracker.round`; everything charged inside a
``with tracker.round():`` block counts as one unit of parallel depth no matter
how many independent queries it contains.  Nested rounds inside an open round
do **not** add extra depth (they model the ``Õ(1)``-depth subroutines run by
the machines of that round).

A module-level *current tracker* (:func:`current_tracker`) lets low-level
oracles charge costs without having a tracker threaded through every call
signature; samplers install their tracker with :func:`use_tracker`.  Every
engine round enters both :meth:`Tracker.round` and :func:`use_tracker`, so
each is a small slotted context-manager object rather than a generator-based
one (a generator costs a few microseconds a use, per round of every sampler).

Work is priced as the paper prices every count: determinants, which Csanky
put in ``NC`` (Proposition 13).  :func:`determinant_work` charges ``n³``
for one ``n x n`` determinant; the exponent affects no depth claim.

A tracker keeps totals only.  The per-round record is written by the engine:
:meth:`~repro.engine.backends.ExecutionBackend.execute` hands the work and
oracle calls charged during one round, as deltas of these totals, to
:func:`repro.obs.record_round`, next to the round's measured seconds.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar, Token
from typing import Iterator, List, Optional


def determinant_work(n: int) -> float:
    """Work charged for one determinant of an ``n x n`` matrix: ``max(n, 1)³``."""
    return float(max(n, 1)) ** 3


class Tracker:
    """Accumulates PRAM depth and work for one sampler execution."""

    def __init__(self) -> None:
        self.rounds: int = 0
        self.work: float = 0.0
        self.oracle_calls: int = 0
        self.peak_machines: float = 0.0
        self._round_depth: int = 0

    # ------------------------------------------------------------------ #
    # round management
    # ------------------------------------------------------------------ #
    def round(self, label: str = "round") -> "_Round":
        """Open one adaptive round (``with tracker.round(): ...``).

        Charges exactly one unit of parallel depth at the outermost nesting
        level; inner rounds are absorbed (they represent the ``Õ(1)``-depth
        subroutines executed by the machines working in this round).
        ``label`` only names the round at the call site.
        """
        return _Round(self)

    def add_rounds(self, count: int) -> None:
        """Charge ``count`` rounds of depth directly (used when merging
        recursive branches executed in parallel)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        self.rounds += int(count)

    # ------------------------------------------------------------------ #
    # charging primitives
    # ------------------------------------------------------------------ #
    def charge(self, *, work: float = 0.0, machines: float = 0.0, oracle_calls: int = 0) -> None:
        """Charge work/machines/oracle-calls to the current round."""
        self.work += float(work)
        self.oracle_calls += int(oracle_calls)
        if machines > self.peak_machines:
            self.peak_machines = float(machines)

    def charge_determinant(self, n: int, count: int = 1) -> None:
        """Charge ``count`` independent determinant evaluations on ``n x n``
        matrices (one batched ``Õ(1)``-depth block)."""
        self.charge(work=count * determinant_work(n), machines=float(count),
                    oracle_calls=count)

    # ------------------------------------------------------------------ #
    # merging parallel branches (recursive samplers, e.g. Theorem 11)
    # ------------------------------------------------------------------ #
    def spawn(self) -> "Tracker":
        """Create a child tracker for a parallel branch."""
        return Tracker()

    def merge_parallel(self, branches: List["Tracker"]) -> None:
        """Merge branch trackers executed *in parallel*: depth is the max of
        the branch depths, work/oracle-calls are summed, machines are summed
        (all branches are simultaneously active)."""
        if not branches:
            return
        self.add_rounds(max(b.rounds for b in branches))
        self.work += sum(b.work for b in branches)
        self.oracle_calls += sum(b.oracle_calls for b in branches)
        combined_machines = sum(max(b.peak_machines, 1.0) for b in branches)
        if combined_machines > self.peak_machines:
            self.peak_machines = combined_machines

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Dictionary summary (used in :class:`repro.core.result.SamplerReport`)."""
        return {
            "rounds": self.rounds,
            "work": self.work,
            "oracle_calls": self.oracle_calls,
            "peak_machines": self.peak_machines,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracker(rounds={self.rounds}, work={self.work:.3g}, "
            f"oracle_calls={self.oracle_calls}, peak_machines={self.peak_machines:.3g})"
        )


class _Round:
    """The context manager :meth:`Tracker.round` returns."""

    __slots__ = ("_tracker",)

    def __init__(self, tracker: Tracker) -> None:
        self._tracker = tracker

    def __enter__(self) -> Tracker:
        tracker = self._tracker
        if tracker._round_depth == 0:
            tracker.rounds += 1
        tracker._round_depth += 1
        return tracker

    def __exit__(self, *exc_info: object) -> None:
        self._tracker._round_depth -= 1


# ---------------------------------------------------------------------- #
# current-tracker plumbing
# ---------------------------------------------------------------------- #
class _NullTracker(Tracker):
    """A tracker whose charges, rounds and merges do nothing.

    It is the default for every thread, so whatever is charged outside
    :func:`use_tracker` lands here; holding no state keeps those charges from
    accumulating or racing.  :meth:`spawn` still returns a real tracker.
    """

    @contextlib.contextmanager
    def round(self, label: str = "round") -> Iterator["Tracker"]:
        yield self

    def add_rounds(self, count: int) -> None:
        pass

    def charge(self, *, work: float = 0.0, machines: float = 0.0, oracle_calls: int = 0) -> None:
        pass

    def merge_parallel(self, branches: List["Tracker"]) -> None:
        pass


_NULL_TRACKER = _NullTracker()
_current: ContextVar[Tracker] = ContextVar("repro_current_tracker", default=_NULL_TRACKER)


def current_tracker() -> Tracker:
    """Return the tracker installed by the innermost :func:`use_tracker`."""
    return _current.get()


class use_tracker:
    """Install ``tracker`` as the current tracker for the enclosed block
    (``with use_tracker(tracker): ...``)."""

    __slots__ = ("_tracker", "_token")

    def __init__(self, tracker: Tracker) -> None:
        self._tracker = tracker
        self._token: Optional[Token] = None

    def __enter__(self) -> Tracker:
        self._token = _current.set(self._tracker)
        return self._tracker

    def __exit__(self, *exc_info: object) -> None:
        assert self._token is not None
        _current.reset(self._token)
