"""Tests for the PRAM cost model and tracker."""

import os
import sys
import threading

import pytest

from repro import serve
from repro.dpp.symmetric import SymmetricKDPP
from repro.pram.cost import CostModel
from repro.pram.tracker import Tracker, current_tracker, null_tracker, use_tracker
from repro.workloads import random_psd_ensemble


class TestCostModel:
    def test_determinant_work_scaling(self):
        model = CostModel(determinant_exponent=3.0)
        assert model.determinant_work(10) == pytest.approx(1000.0)

    def test_determinant_work_minimum(self):
        model = CostModel()
        assert model.determinant_work(0) == pytest.approx(1.0)

    def test_oracle_query_work(self):
        model = CostModel(determinant_exponent=2.0)
        assert model.oracle_query_work(4, queries=3) == pytest.approx(3 * 16.0)


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

    def test_round_log(self):
        t = Tracker(record_rounds=True)
        with t.round("alpha"):
            t.charge(work=2.0, oracle_calls=1)
        assert len(t.round_log) == 1
        assert t.round_log[0].label == "alpha"
        assert t.round_log[0].work == pytest.approx(2.0)


class TestRoundRecords:
    """record_rounds=True keeps one labelled RoundRecord per outermost round."""

    def test_labels_in_order(self):
        t = Tracker(record_rounds=True)
        for label in ("select", "filter", "commit"):
            with t.round(label):
                t.charge(work=1.0)
        assert [r.label for r in t.round_log] == ["select", "filter", "commit"]

    def test_nested_charges_attributed_to_outermost_record(self):
        t = Tracker(record_rounds=True)
        with t.round("outer"):
            t.charge(work=1.0, machines=2.0, oracle_calls=1)
            with t.round("inner"):
                t.charge(work=4.0, machines=5.0, oracle_calls=2)
        assert len(t.round_log) == 1
        record = t.round_log[0]
        assert record.label == "outer"
        assert record.work == pytest.approx(5.0)
        assert record.machines == pytest.approx(5.0)
        assert record.oracle_calls == 3

    def test_record_machines_is_per_round_peak(self):
        t = Tracker(record_rounds=True)
        with t.round("a"):
            t.charge(machines=7.0)
            t.charge(machines=3.0)
        assert t.round_log[0].machines == pytest.approx(7.0)

    def test_disabled_by_default(self):
        t = Tracker()
        with t.round("unlogged"):
            t.charge(work=1.0)
        assert t.round_log == []

    def test_charges_outside_rounds_not_recorded(self):
        t = Tracker(record_rounds=True)
        t.charge(work=9.0)
        with t.round("only"):
            pass
        t.charge(work=9.0)
        assert t.round_log[0].work == pytest.approx(0.0)

    def test_round_log_totals_match_tracker(self):
        t = Tracker(record_rounds=True)
        with t.round("a"):
            t.charge(work=2.0, oracle_calls=3)
        with t.round("b"):
            t.charge(work=5.0, oracle_calls=1)
        assert sum(r.work for r in t.round_log) == pytest.approx(t.work)
        assert sum(r.oracle_calls for r in t.round_log) == t.oracle_calls
        assert len(t.round_log) == t.rounds


class TestTrackerCharges:
    def test_charge_accumulates(self):
        t = Tracker()
        t.charge(work=5.0, machines=3.0, oracle_calls=2)
        t.charge(work=1.0, machines=1.0, oracle_calls=1)
        assert t.work == pytest.approx(6.0)
        assert t.oracle_calls == 3
        assert t.peak_machines == pytest.approx(3.0)

    def test_charge_determinant(self):
        t = Tracker(CostModel(determinant_exponent=3.0))
        t.charge_determinant(4, count=2)
        assert t.work == pytest.approx(2 * 64.0)
        assert t.oracle_calls == 2

    def test_charge_oracle(self):
        t = Tracker()
        t.charge_oracle(5, queries=7)
        assert t.oracle_calls == 7
        assert t.peak_machines == pytest.approx(7.0)

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
                    branch.charge_oracle(4, queries=2)
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
        parent = Tracker(record_rounds=True)
        child = parent.spawn()
        with child.round("child-round"):
            child.charge(work=1.0)
        assert child.round_log == []
        parent.merge_parallel([child])
        assert parent.round_log == []
        assert parent.rounds == 1

    def test_merge_sequential_adds_depth(self):
        parent = Tracker()
        with parent.round():
            pass
        child = parent.spawn()
        for _ in range(2):
            with child.round():
                pass
        parent.merge_sequential(child)
        assert parent.rounds == 3


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
