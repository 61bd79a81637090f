"""Tests for end-to-end request tracing, SLO tracking and the flight recorder.

Covers the :mod:`repro.obs.context` id/propagation primitives, span recording
(including the ``dropped_spans`` counter), the P² streaming quantile
estimator, per-family SLO rollups in the Prometheus exposition, the
slow-request flight recorder with its Chrome trace-event export, the
``python -m repro.obs`` CLI, and the tracing determinism contract: fixed-seed
samples are byte-identical with tracing off / on / flight-recorder armed,
fused or unfused, single-node or cluster — spans survive ``kill_node``
failover with the extra hop visible in the trace, and SLO tracking takes one
observation per request on every entry point, tracing off or on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import obs
from repro.cluster import LocalCluster
from repro.obs.context import (
    TraceContext,
    context_from_wire,
    next_span_id,
    next_trace_id,
    reset_ids,
)
from repro.obs.export import chrome_trace_events
from repro.obs.slo import P2Quantile, SLOTracker
from repro.obs.__main__ import main as obs_cli


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with process-wide observability dark."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def _psd(n: int = 24, rank: int = 6, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n, rank))
    return factor @ factor.T


def _spans():
    return [r for r in obs.tracer().records() if r.get("type") == "span"]


# ---------------------------------------------------------------------- #
# trace-context primitives
# ---------------------------------------------------------------------- #
class TestTraceContext:
    def test_ids_are_deterministic_counters(self):
        reset_ids()
        first = (next_trace_id(), next_span_id())
        reset_ids()
        assert (next_trace_id(), next_span_id()) == first
        # never wall-clock or random: the same seed replays the same ids
        assert first[0].startswith("t") and first[1].startswith("s")

    def test_child_keeps_trace_id_and_sets_parent(self):
        ctx = TraceContext(trace_id="t1", span_id="s1")
        child = ctx.child()
        assert child.trace_id == "t1"
        assert child.parent_id == "s1"
        assert child.span_id != "s1"

    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id="t9", span_id="s9", parent_id="s8")
        wired = context_from_wire(ctx.as_wire())
        assert wired is not None
        assert (wired.trace_id, wired.span_id) == ("t9", "s9")
        # parent never ships: the wire form marks the remote span boundary
        assert wired.parent_id is None
        assert context_from_wire(None) is None

    def test_activate_scopes_ambient_context(self):
        ctx = TraceContext(trace_id="t2", span_id="s2")
        assert obs.current_context() is None
        with obs.activate(ctx):
            assert obs.current_context() is ctx
        assert obs.current_context() is None


# ---------------------------------------------------------------------- #
# span recording + dropped counter
# ---------------------------------------------------------------------- #
class TestSpanRecording:
    def test_spans_dark_when_disabled(self):
        assert obs.start_span("x", category="test") is None
        with obs.span("y", category="test"):
            pass
        assert obs.tracer().records() == []

    def test_span_tree_parents_nest(self):
        obs.enable(trace=True)
        with obs.span("outer", category="test"):
            with obs.span("inner", category="test"):
                pass
        spans = _spans()
        outer = next(s for s in spans if s["name"] == "outer")
        inner = next(s for s in spans if s["name"] == "inner")
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer.get("parent_id") is None

    def test_span_stamps_escaping_exception_class(self):
        obs.enable(trace=True)
        with pytest.raises(ValueError):
            with obs.span("boom", category="test"):
                raise ValueError("boom")
        (record,) = _spans()
        assert record["error"] == "ValueError"

    def test_dropped_spans_counted_and_exported(self):
        tracer = obs.tracer()
        obs.enable(trace=True)
        capacity = tracer.capacity
        for index in range(capacity + 7):
            tracer.event("flood", index=index)
        assert tracer.dropped_spans == 7
        snap = obs.snapshot()
        assert snap["trace"]["dropped_spans"] == 7
        text = obs.render_prometheus()
        assert "repro_tracer_dropped_spans_total 7" in text


# ---------------------------------------------------------------------- #
# P² streaming quantiles + SLO tracker
# ---------------------------------------------------------------------- #
class TestSLO:
    def test_p2_exact_for_small_samples(self):
        q = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            q.observe(v)
        assert q.value() == pytest.approx(2.0)

    def test_p2_tracks_quantiles_of_large_stream(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(scale=1.0, size=5000)
        for p in (0.5, 0.95, 0.99):
            q = P2Quantile(p)
            for v in values:
                q.observe(float(v))
            exact = float(np.quantile(values, p))
            assert q.value() == pytest.approx(exact, rel=0.05)

    def test_tracker_snapshot_and_prometheus(self):
        tracker = SLOTracker(enabled=True)
        for ms in range(1, 101):
            tracker.observe_request("dpp", ms / 1000.0)
        tracker.observe_op("drain", 0.25)
        state = tracker.slo_state()
        fam = state["request_latency"]["dpp"]
        assert fam["count"] == 100
        assert fam["p50"] < fam["p95"] < fam["p99"]
        json.dumps(state)

    def test_slo_quantiles_reach_prometheus(self):
        obs.enable(slo=True)
        for ms in range(1, 40):
            obs.slo().observe_request("dpp", ms / 1000.0)
        text = obs.render_prometheus()
        for quantile in ("p50", "p95", "p99"):
            assert (f'repro_slo_request_latency_seconds{{family="dpp",'
                    f'quantile="{quantile}"}}') in text
        assert ('repro_slo_request_latency_seconds_observations_total'
                '{family="dpp"} 39') in text


# ---------------------------------------------------------------------- #
# flight recorder + chrome export
# ---------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_budget_zero_captures_every_root(self):
        obs.enable(trace=True, flight_budget=0.0)
        with obs.span("slow-thing", category="request", family="dpp"):
            pass
        recorder = obs.flight_recorder()
        assert recorder.captured_total == 1
        capture = recorder.captures()[0]
        assert capture["records"], "capture must hold the full span tree"

    def test_disarmed_recorder_captures_nothing(self):
        obs.enable(trace=True)
        with obs.span("fast-thing", category="request", family="dpp"):
            pass
        assert obs.flight_recorder().captured_total == 0

    def test_capture_converts_to_valid_chrome_trace(self):
        obs.enable(trace=True, flight_budget=0.0)
        with obs.span("root", category="request", family="dpp"):
            with obs.span("child", category="test"):
                pass
        capture = obs.flight_recorder().captures()[0]
        document = obs.chrome_trace(capture["records"])
        parsed = json.loads(json.dumps(document))
        events = parsed["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        for event in events:
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 1

    def test_chrome_lanes_separate_traces(self):
        records = [
            {"type": "span", "name": "a", "category": "t", "trace_id": "t1",
             "span_id": "s1", "start": 1.0, "duration": 0.5, "monotonic": 1.5},
            {"type": "span", "name": "b", "category": "t", "trace_id": "t2",
             "span_id": "s2", "start": 1.1, "duration": 0.5, "monotonic": 1.6},
        ]
        events = chrome_trace_events(records)
        assert len({e["tid"] for e in events}) == 2


# ---------------------------------------------------------------------- #
# single-node end to end
# ---------------------------------------------------------------------- #
class TestSingleNodeTracing:
    def test_fused_drain_produces_connected_tree_with_links(self):
        obs.enable(trace=True, slo=True)
        session = repro.serve(_psd())
        try:
            scheduler = session.scheduler(seed=7)
            for _ in range(4):
                scheduler.submit(3)
            scheduler.drain()
        finally:
            session.close()
        spans = _spans()
        by_id = {s["span_id"]: s for s in spans}
        orphans = [s for s in spans
                   if s.get("parent_id") and s["parent_id"] not in by_id]
        assert not orphans
        requests = [s for s in spans if s["name"] == "scheduled-request"]
        assert len(requests) == 4
        for req in requests:
            tree = [s for s in spans if s["trace_id"] == req["trace_id"]]
            assert any(s["name"] == "queue-wait" for s in tree)
        fused = [s for s in spans if s["category"] == "fused_round"]
        assert fused
        # fused rounds link back into every member's request trace
        linked_traces = {l["trace_id"]
                         for s in fused for l in (s.get("links") or [])}
        member_traces = {s["trace_id"] for s in requests}
        assert member_traces <= linked_traces

    def test_round_records_stamped_with_trace_ids(self):
        obs.enable(trace=True)
        session = repro.serve(_psd())
        try:
            session.sample(3, seed=11)
        finally:
            session.close()
        rounds = [r for r in obs.tracer().records() if r.get("type") == "round"]
        assert rounds
        assert all(r.get("trace_id") for r in rounds)

    def test_slo_observes_one_latency_per_request(self):
        obs.enable(trace=True, slo=True)
        session = repro.serve(_psd())
        try:
            scheduler = session.scheduler(seed=7)
            for _ in range(3):
                scheduler.submit(3)
            scheduler.drain()
            session.sample(3, seed=11)
        finally:
            session.close()
        state = obs.slo().slo_state()
        counts = {fam: row["count"]
                  for fam, row in state["request_latency"].items()}
        # 3 scheduled requests + 1 direct sample, no double count for the
        # nested session.sample inside the scheduler worker
        assert sum(counts.values()) == 4

    def test_process_backend_reports_worker_spans(self):
        from repro.dpp.symmetric import SymmetricKDPP
        from repro.engine.backends import ProcessPoolBackend
        from repro.engine.batch import OracleBatch
        from repro.pram.tracker import Tracker
        from repro.workloads import random_psd_ensemble

        obs.enable(trace=True)
        kdpp = SymmetricKDPP(random_psd_ensemble(14, seed=0), 6)
        subsets = [(0, 1), (2, 3), (4, 5), (6, 7)]
        backend = ProcessPoolBackend(max_workers=2)  # 4 queries: 2 chunks
        try:
            with obs.span("probe", category="request", family="kdpp"):
                backend.execute(OracleBatch.counting(kdpp, subsets),
                                tracker=Tracker())
        finally:
            backend.close()
        workers = [s for s in _spans() if s["category"] == "worker_chunk"]
        if not workers:
            pytest.skip("process pool degraded (no shared memory); "
                        "worker spans need real fan-out")
        for span in workers:
            assert span["parent_id"] and ".w" in span["span_id"]
        # chunks under one round get distinct, hierarchical span ids
        assert len({s["span_id"] for s in workers}) == len(workers)


# ---------------------------------------------------------------------- #
# determinism: tracing never changes samples
# ---------------------------------------------------------------------- #
class TestTracingDeterminism:
    def _draws(self, fused: bool):
        session = repro.serve(_psd())
        try:
            if fused:
                scheduler = session.scheduler(seed=7)
                for _ in range(3):
                    scheduler.submit(3)
                return [r.subset for r in scheduler.drain()]
            return [session.sample(3, seed=s).subset for s in (1, 2, 3)]
        finally:
            session.close()

    @pytest.mark.parametrize("fused", [False, True])
    def test_fixed_seed_identical_off_on_armed(self, fused):
        obs.reset(); obs.disable()
        base = self._draws(fused)
        obs.reset()
        obs.enable(trace=True, slo=True)
        traced = self._draws(fused)
        obs.reset()
        obs.enable(trace=True, slo=True, flight_budget=0.0)
        armed = self._draws(fused)
        assert base == traced == armed


# ---------------------------------------------------------------------- #
# cluster end to end
# ---------------------------------------------------------------------- #
class TestClusterTracing:
    def _cluster_draws(self, matrix):
        with LocalCluster(nodes=3, replication=2, backend="serial") as cluster:
            session = repro.serve_cluster(matrix, cluster=cluster,
                                          scheduler_seed=3)
            for _ in range(3):
                session.submit(3)
            draws = [r.subset for r in session.drain()]
            draws.append(session.sample(2, seed=9).subset)
            return draws

    def test_cluster_identity_and_connected_tree(self):
        matrix = _psd()
        obs.reset(); obs.disable()
        base = self._cluster_draws(matrix)
        obs.reset()
        obs.enable(trace=True, slo=True, flight_budget=0.0)
        traced = self._cluster_draws(matrix)
        assert base == traced

        spans = _spans()
        by_id = {s["span_id"]: s for s in spans}
        orphans = [s for s in spans
                   if s.get("parent_id") and s["parent_id"] not in by_id]
        assert not orphans
        requests = [s for s in spans if s["name"] == "cluster-request"]
        assert len(requests) == 3
        # each client-side request root reaches the node's scheduler
        for req in requests:
            tree = [s for s in spans if s["trace_id"] == req["trace_id"]]
            names = {s["name"] for s in tree}
            assert {"scheduled-request", "queue-wait"} <= names
        # the drain trace carries the wire hop + server-side op span and
        # links back to every queued request's root
        drain = next(s for s in spans if s["name"] == "cluster-drain")
        categories = {s["category"] for s in spans
                      if s["trace_id"] == drain["trace_id"]}
        assert {"wire", "node_op"} <= categories
        link_ids = {(l["trace_id"], l["span_id"])
                    for l in drain.get("links") or []}
        request_ids = {(s["trace_id"], s["span_id"]) for s in requests}
        assert request_ids <= link_ids
        # SLO saw the cluster requests; flight recorder captured roots
        assert obs.slo().slo_state()["request_latency"]
        assert obs.flight_recorder().captured_total > 0

    def test_spans_survive_kill_node_failover(self):
        obs.enable(trace=True)
        matrix = _psd()
        with LocalCluster(nodes=3, replication=2,
                          backend="serial") as cluster:
            session = repro.serve_cluster(matrix, cluster=cluster,
                                          scheduler_seed=3)
            cluster.kill_node(session.owners[0])
            session.submit(3)
            draws = [r.subset for r in session.drain()]
        assert draws
        assert obs.tracer().events("kill_node")
        wire = [s for s in _spans() if s["category"] == "wire"]
        outcomes = [s.get("outcome") for s in wire]
        # the dead primary shows up as a failover hop, the replica as ok
        assert "failover" in outcomes and "ok" in outcomes
        # the failed hop names the exception class that caused it
        failover = next(s for s in wire if s.get("outcome") == "failover")
        assert failover["error"] == "NodeUnavailable"


class TestSLOOncePerRequest:
    """Four requests are four SLO observations on every entry point, with
    tracing off or on: a request nested in another (a scheduler ticket
    running ``session.sample``, a shard node serving a client frame) is
    never a root, so it is never observed a second time."""

    REQUESTS = 4

    def _session_sample(self, matrix):
        with repro.serve(matrix) as session:
            for seed in range(self.REQUESTS):
                session.sample(3, seed=seed)

    def _scheduler_drain(self, matrix):
        with repro.serve(matrix) as session:
            scheduler = session.scheduler(seed=7)
            for _ in range(self.REQUESTS):
                scheduler.submit(3)
            scheduler.drain()

    def _cluster_sample(self, matrix):
        with LocalCluster(nodes=3, replication=2, backend="serial") as cluster:
            session = repro.serve_cluster(matrix, cluster=cluster)
            for seed in range(self.REQUESTS):
                session.sample(3, seed=seed)

    def _cluster_drain(self, matrix):
        with LocalCluster(nodes=3, replication=2, backend="serial") as cluster:
            session = repro.serve_cluster(matrix, cluster=cluster,
                                          scheduler_seed=3)
            for _ in range(self.REQUESTS):
                session.submit(3)
            session.drain()

    @pytest.mark.parametrize("trace", [False, True],
                             ids=["trace-off", "trace-on"])
    @pytest.mark.parametrize("entry", ["session-sample", "scheduler-drain",
                                       "cluster-sample", "cluster-drain"])
    def test_each_request_observed_once(self, entry, trace):
        obs.configure(trace=trace, slo=True)
        getattr(self, "_" + entry.replace("-", "_"))(_psd())
        latency = obs.slo().slo_state()["request_latency"]
        assert sum(row["count"] for row in latency.values()) == self.REQUESTS


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestObsCLI:
    def test_snapshot_subcommand(self, tmp_path, capsys):
        out = tmp_path / "snap.json"
        assert obs_cli(["snapshot", "--demo", "--out", str(out)]) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["trace"]["records"]
        assert snapshot["slo"]["request_latency"]

    def test_prom_subcommand(self, capsys):
        assert obs_cli(["prom", "--demo"]) == 0
        text = capsys.readouterr().out
        assert "repro_slo_request_latency_seconds" in text
        assert "repro_tracer_dropped_spans_total" in text

    def test_trace_subcommand_writes_chrome_json(self, tmp_path):
        out = tmp_path / "chrome.json"
        assert obs_cli(["trace", "--demo", "--flight", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])

    def test_trace_reads_prior_snapshot(self, tmp_path):
        snap = tmp_path / "snap.json"
        chrome = tmp_path / "chrome.json"
        assert obs_cli(["snapshot", "--demo", "--out", str(snap)]) == 0
        assert obs_cli(["trace", "--in", str(snap),
                        "--out", str(chrome)]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]
