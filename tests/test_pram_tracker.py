"""Tests for the PRAM work price and tracker."""

import os
import sys
import threading

import pytest

from repro import obs, serve
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine.backends import SerialBackend
from repro.engine.batch import OracleBatch
from repro.pram.tracker import (
    Tracker,
    current_tracker,
    determinant_work,
    null_tracker,
    use_tracker,
)
from repro.workloads import random_psd_ensemble


class TestCostModel:
    def test_determinant_work_scaling(self):
        assert determinant_work(10) == 1000.0

    def test_determinant_work_minimum(self):
        assert determinant_work(0) == 1.0


class TestTrackerRounds:
    def test_single_round(self):
        t = Tracker()
        with t.round():
            pass
        assert t.rounds == 1

    def test_nested_rounds_count_once(self):
        t = Tracker()
        with t.round("outer"):
            with t.round("inner"):
                with t.round("inner2"):
                    pass
        assert t.rounds == 1

    def test_sequential_rounds_add(self):
        t = Tracker()
        for _ in range(5):
            with t.round():
                pass
        assert t.rounds == 5

    def test_add_rounds(self):
        t = Tracker()
        t.add_rounds(3)
        assert t.rounds == 3
        with pytest.raises(ValueError):
            t.add_rounds(-1)


class TestRoundRecords:
    """ExecutionBackend.execute writes one obs round record per OracleBatch,
    carrying the PRAM work and oracle calls charged inside that round."""

    @pytest.fixture(autouse=True)
    def _tracing(self):
        obs.reset()
        obs.configure(trace=True)
        yield
        obs.reset()
        obs.disable()

    @staticmethod
    def _batches():
        kdpp = SymmetricKDPP(random_psd_ensemble(12, rank=6, seed=1), 3)
        matrix = random_psd_ensemble(8, seed=2)
        return [
            OracleBatch.counting(kdpp, [(0,), (1,), (2,)], label="select"),
            OracleBatch.log_principal_minors(matrix, [(0, 1), (2,)], label="filter"),
            OracleBatch.joint_marginals(kdpp, [(0, 1)], label="commit"),
        ]

    @staticmethod
    def _execute(batches, tracker):
        """Run ``batches`` through one backend; the tracker deltas per call."""
        backend = SerialBackend()
        deltas = []
        for batch in batches:
            before = (tracker.work, tracker.oracle_calls)
            backend.execute(batch, tracker=tracker)
            deltas.append((tracker.work - before[0],
                           tracker.oracle_calls - before[1]))
        return deltas

    def test_labels_in_order(self):
        deltas = self._execute(self._batches(), Tracker())
        records = obs.tracer().spans()
        assert [r["label"] for r in records] == ["select", "filter", "commit"]
        # each record carries exactly what its execute charged the tracker
        assert [(r["work"], r["oracle_calls"]) for r in records] == deltas
        assert all(work > 0 and calls > 0 for work, calls in deltas)

    def test_record_totals_match_tracker(self):
        tracker = Tracker()
        self._execute(self._batches(), tracker)
        records = obs.tracer().spans()
        assert sum(r["work"] for r in records) == pytest.approx(tracker.work)
        assert sum(r["oracle_calls"] for r in records) == tracker.oracle_calls
        assert len(records) == tracker.rounds

    def test_nested_charges_attributed_to_outermost_record(self):
        def counting(subset):
            with current_tracker().round("inner"):
                current_tracker().charge(work=4.0, oracle_calls=2)
            return 1.0

        batch = OracleBatch.counting(_Counting(counting), [(0,), (1,)],
                                     label="outer")
        tracker = Tracker()
        self._execute([batch], tracker)
        (record,) = obs.tracer().spans()
        assert record["label"] == "outer"
        assert record["work"] == pytest.approx(8.0)
        assert record["oracle_calls"] == 4
        assert tracker.rounds == 1

    def test_charges_outside_rounds_not_recorded(self):
        matrix = random_psd_ensemble(6, seed=3)
        tracker = Tracker()
        tracker.charge(work=9.0, oracle_calls=9)
        with tracker.round("not-an-engine-round"):
            tracker.charge(work=9.0, oracle_calls=9)
        deltas = self._execute(
            [OracleBatch.log_principal_minors(matrix, [(0,)], label="only")],
            tracker)
        tracker.charge(work=9.0, oracle_calls=9)
        (record,) = obs.tracer().spans()
        assert (record["work"], record["oracle_calls"]) == deltas[0]
        assert record["oracle_calls"] == 1
        assert tracker.oracle_calls == 28

    def test_disabled_by_default(self):
        obs.disable()
        tracker = Tracker()
        self._execute(self._batches(), tracker)
        assert obs.tracer().records() == []
        assert tracker.rounds == 3


class _Counting:
    """Minimal distribution whose counting oracle is a given function."""

    def __init__(self, counting):
        self.counting = counting


class TestTrackerCharges:
    def test_charge_accumulates(self):
        t = Tracker()
        t.charge(work=5.0, machines=3.0, oracle_calls=2)
        t.charge(work=1.0, machines=1.0, oracle_calls=1)
        assert t.work == pytest.approx(6.0)
        assert t.oracle_calls == 3
        assert t.peak_machines == pytest.approx(3.0)

    def test_charge_determinant(self):
        t = Tracker()
        t.charge_determinant(4, count=2)
        assert t.work == pytest.approx(2 * 64.0)
        assert t.oracle_calls == 2
        assert t.peak_machines == pytest.approx(2.0)

    def test_snapshot_keys(self):
        t = Tracker()
        snap = t.snapshot()
        assert set(snap) == {"rounds", "work", "oracle_calls", "peak_machines"}


class TestTrackerMerging:
    def test_merge_parallel_takes_max_depth(self):
        parent = Tracker()
        a, b = parent.spawn(), parent.spawn()
        for _ in range(3):
            with a.round():
                a.charge(work=1.0)
        for _ in range(5):
            with b.round():
                b.charge(work=2.0)
        parent.merge_parallel([a, b])
        assert parent.rounds == 5
        assert parent.work == pytest.approx(3.0 + 10.0)

    def test_merge_parallel_empty(self):
        parent = Tracker()
        parent.merge_parallel([])
        assert parent.rounds == 0

    def test_merge_parallel_sums_machines(self):
        parent = Tracker()
        a, b = parent.spawn(), parent.spawn()
        a.charge(machines=4.0)
        b.charge(machines=6.0)
        parent.merge_parallel([a, b])
        assert parent.peak_machines == pytest.approx(10.0)

    def test_merge_parallel_round_accounting(self):
        """Depth is the max branch depth; work/oracle-calls sum; a parent
        round opened before the merge still counts separately."""
        parent = Tracker()
        with parent.round("setup"):
            parent.charge(oracle_calls=1)
        branches = [parent.spawn() for _ in range(3)]
        for depth, branch in zip((2, 4, 1), branches):
            for _ in range(depth):
                with branch.round():
                    branch.charge_determinant(4, count=2)
        parent.merge_parallel(branches)
        assert parent.rounds == 1 + 4
        assert parent.oracle_calls == 1 + 2 * (2 + 4 + 1)

    def test_merge_parallel_zero_depth_branches(self):
        parent = Tracker()
        a, b = parent.spawn(), parent.spawn()
        a.charge(work=1.0)
        b.charge(work=2.0)
        parent.merge_parallel([a, b])
        assert parent.rounds == 0
        assert parent.work == pytest.approx(3.0)
        # idle branches still occupy one machine each while active
        assert parent.peak_machines == pytest.approx(2.0)

    def test_spawn_does_not_record_rounds(self):
        parent = Tracker()
        child = parent.spawn()
        with child.round("child-round"):
            child.charge(work=1.0)
        parent.merge_parallel([child])
        assert parent.rounds == 1


class TestCurrentTracker:
    def test_default_is_null_tracker(self):
        assert current_tracker() is null_tracker()

    def test_null_tracker_ignores_concurrent_charges(self):
        zero = {"rounds": 0, "work": 0.0, "oracle_calls": 0, "peak_machines": 0.0}
        L = random_psd_ensemble(60, rank=20, seed=3)
        with serve(L) as session:
            session.warm()
        kdpp = SymmetricKDPP(L, 5)
        explicit = Tracker()
        errors = []

        def charge_outside_any_tracker():
            try:
                for _ in range(200):
                    kdpp.partition_function()
                    with current_tracker().round():
                        current_tracker().charge_determinant(60)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=charge_outside_any_tracker)
                   for _ in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            with use_tracker(explicit):
                for _ in range(200):
                    kdpp.partition_function()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert null_tracker().snapshot() == zero
        assert explicit.oracle_calls == 200
        child = null_tracker().spawn()
        child.charge(oracle_calls=1)
        assert child.oracle_calls == 1

    def test_use_tracker_installs_and_restores(self):
        t = Tracker()
        with use_tracker(t):
            assert current_tracker() is t
        assert current_tracker() is not t

    def test_nested_use_tracker(self):
        outer, inner = Tracker(), Tracker()
        with use_tracker(outer):
            with use_tracker(inner):
                assert current_tracker() is inner
            assert current_tracker() is outer
