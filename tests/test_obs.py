"""Tests for the observability layer (:mod:`repro.obs`).

Covers the metrics registry / tracer primitives, the Prometheus and JSON
exports, the stable stats rollup schemas, and the determinism contract:
enabling observability (metrics, tracing) never changes sampled values.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading

import numpy as np
import pytest

import repro
from repro import obs
from repro.engine.batch import OracleBatch, OracleBatchResult
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.cache import CacheStats


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with process-wide observability dark."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


# ---------------------------------------------------------------------- #
# metrics primitives
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("t_total", "help")
        hist = reg.histogram("t_seconds", "help")
        counter.inc()
        hist.observe(1.0)
        assert counter.value() == 0.0
        assert hist.value()["count"] == 0
        snap = reg.snapshot()
        assert snap["enabled"] is False

    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("ops_total", "help", labelnames=("op",))
        counter.inc(op="ping")
        counter.inc(2.0, op="ping")
        counter.inc(op="stats")
        assert counter.value(op="ping") == pytest.approx(3.0)
        assert counter.value(op="stats") == pytest.approx(1.0)

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("neg_total", "help")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("lat", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            hist.observe(v)
        state = hist.value()
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(55.55)
        # bucket counts are per-bin here; cumulation happens at render time
        assert sum(state["counts"]) == 4

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry(enabled=True)
        a = reg.counter("same_total", "help")
        b = reg.counter("same_total", "help")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("clash", "help")
        with pytest.raises(ValueError):
            reg.histogram("clash", "help")

    def test_unknown_label_rejected(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("lbl_total", "help", labelnames=("op",))
        with pytest.raises(ValueError):
            counter.inc(other="x")

    def test_thread_safety_of_counter(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("race_total", "help")

        def worker():
            for _ in range(500):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == pytest.approx(4000.0)

    def test_reset_clears_values_keeps_instruments(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("kept_total", "help")
        counter.inc()
        reg.reset()
        assert counter.value() == 0.0
        assert reg.counter("kept_total", "help") is counter


class TestPrometheusRendering:
    """render_prometheus() must follow the text exposition format 0.0.4."""

    _SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$")

    def _parse(self, text):
        """Minimal format check: every line is HELP, TYPE, or a sample."""
        families = {}
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP "):
                families[line.split()[2]] = {"help": True}
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                families.setdefault(name, {})["type"] = kind
                assert kind in ("counter", "gauge", "histogram", "untyped")
            else:
                assert self._SAMPLE.match(line), f"bad sample line: {line!r}"
        return families

    def test_render_parses_and_covers_catalog(self):
        obs.enable()
        matrix = np.eye(4)
        batch = OracleBatch.log_principal_minors(matrix, [(0,), (1,)], label="t")
        result = OracleBatchResult(values=np.zeros(2), backend="serial",
                                   wall_time=0.01, n_queries=2)
        obs.record_round(batch, result)
        families = self._parse(obs.render_prometheus())
        assert families["repro_rounds_total"]["type"] == "counter"
        assert families["repro_round_seconds"]["type"] == "histogram"
        assert families["repro_round_queries"]["type"] == "histogram"

    def test_histogram_rendering_is_cumulative_with_inf(self):
        reg = MetricsRegistry(enabled=True)
        hist = reg.histogram("h", "help", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 5.0):
            hist.observe(v)
        text = reg.render_prometheus()
        assert 'h_bucket{le="1"} 1' in text or 'h_bucket{le="1.0"} 1' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text
        # cumulative: the le="2" bucket includes the le="1" observations
        match = re.search(r'h_bucket\{le="2(\.0)?"\} (\d+)', text)
        assert match and int(match.group(2)) == 2

    def test_label_values_escaped(self):
        reg = MetricsRegistry(enabled=True)
        counter = reg.counter("esc_total", "help", labelnames=("label",))
        counter.inc(label='a"b\\c\nd')
        text = reg.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record_round(label="r", kind="counting", family="F",
                            backend="serial", queries=3, wall_time=0.1)
        assert len(tracer) == 0

    def test_ring_buffer_caps_capacity(self):
        tracer = Tracer(capacity=4, enabled=True)
        for i in range(10):
            tracer.event("tick", i=i)
        events = tracer.events("tick")
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]

    def test_round_spans_carry_required_fields(self):
        tracer = Tracer(enabled=True)
        tracer.record_round(label="phase-1", kind="counting", family="DppKDpp",
                            backend="vectorized", queries=7, wall_time=0.25,
                            work=350.0, oracle_calls=7)
        (span,) = tracer.spans()
        assert span["type"] == "round"
        assert span["label"] == "phase-1"
        assert span["backend"] == "vectorized"
        assert span["queries"] == 7
        assert span["wall_time"] == pytest.approx(0.25)
        assert span["work"] == pytest.approx(350.0)
        assert span["oracle_calls"] == 7
        json.dumps(span)  # every span must be JSON-safe

    def test_numpy_scalars_coerced(self):
        tracer = Tracer(enabled=True)
        tracer.event("e", value=np.float64(1.5), count=np.int64(3))
        (event,) = tracer.events("e")
        assert isinstance(event["value"], float)
        assert isinstance(event["count"], int)
        json.dumps(event)


# ---------------------------------------------------------------------- #
# process-wide switches and exports
# ---------------------------------------------------------------------- #
class TestObsFacade:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not obs.tracer().enabled

    def test_enable_disable_cycle(self):
        obs.enable()
        assert obs.enabled() and obs.tracer().enabled
        obs.disable()
        assert not obs.enabled() and not obs.tracer().enabled

    def test_snapshot_shape_and_json(self):
        obs.enable()
        obs.record_fusion(3)
        snap = obs.snapshot()
        json.dumps(snap)
        assert set(snap) == {"metrics", "trace", "slo", "flight"}
        assert snap["metrics"]["enabled"] is True

    def test_record_round_populates_metrics_and_trace(self):
        obs.enable()
        matrix = np.eye(4)
        batch = OracleBatch.log_principal_minors(matrix, [(0,), (1,)], label="t")
        result = OracleBatchResult(values=np.zeros(2), backend="serial",
                                   wall_time=0.01, n_queries=2)
        obs.record_round(batch, result)
        counter = obs.registry().counter(
            "repro_rounds_total", "", labelnames=("backend", "kind"))
        assert counter.value(backend="serial",
                             kind="log_principal_minors") == pytest.approx(1.0)
        (span,) = obs.tracer().spans()
        assert span["family"] == "matrix"

    def test_reset_clears_everything(self):
        obs.enable()
        obs.record_fusion(2)
        obs.tracer().event("x")
        obs.reset()
        assert len(obs.tracer()) == 0
        # value-less instruments are omitted from exports entirely
        assert "repro_scheduler_fusion_width" not in obs.snapshot()["metrics"]["metrics"]


# ---------------------------------------------------------------------- #
# stats rollups: one registry, stable schemas, JSON-safe
# ---------------------------------------------------------------------- #
class TestStatsRollups:
    def test_session_stats_schema_and_json(self, small_psd):
        with repro.serve(small_psd, registry=repro.KernelRegistry()) as session:
            session.sample(k=3, seed=1)
            stats = session.stats
        json.dumps(stats)
        assert set(stats) >= {"kernel", "kind", "n", "samples_served",
                              "cache", "cached_artifacts_bytes"}
        assert stats["samples_served"] == 1
        assert set(stats["cache"]) == {"hits", "misses", "evictions",
                                       "invalidations", "update_patched",
                                       "update_recomputed"}

    def test_scheduler_stats_json(self, small_psd):
        with repro.serve(small_psd, registry=repro.KernelRegistry()) as session:
            scheduler = repro.RoundScheduler(session)
            scheduler.submit(3, seed=1)
            scheduler.drain()
            json.dumps(scheduler.stats)
            json.dumps(session.stats)  # session view now includes scheduler

    def test_registry_and_cache_info_json(self, small_psd):
        registry = repro.KernelRegistry()
        with repro.serve(small_psd, registry=registry) as session:
            session.sample(k=3, seed=1)
            json.dumps(registry.registry_info())
            json.dumps(session.cache.cache_info())
            json.dumps(registry.census())

    def test_cluster_info_schema_shared_between_frontends(self, small_psd):
        from repro.cluster import LocalCluster

        with LocalCluster(nodes=2, replication=1) as cluster:
            client = cluster.client()
            entry = client.register(small_psd, name="k")
            client.sample(entry.name, k=3, seed=2)
            via_client = client.cluster_info()
            via_cluster = cluster.cluster_info()
        json.dumps(via_client)
        assert set(via_client) == {"nodes", "alive", "ring", "registered",
                                   "samples_served", "failovers", "cache"}
        assert set(via_client["ring"]) == {"nodes", "vnodes", "replication"}
        assert set(via_cluster) == set(via_client)
        assert via_client["alive"] == 2
        assert via_client["registered"] == 1
        assert via_client["samples_served"] == 1

    def test_cluster_session_stats_json(self, small_psd):
        with repro.serve_cluster(small_psd, nodes=2) as session:
            session.sample(k=3, seed=3)
            json.dumps(session.stats)

    def test_obs_snapshot_json_after_real_traffic(self, small_psd):
        obs.enable()
        with repro.serve(small_psd, registry=repro.KernelRegistry()) as session:
            session.sample(k=3, seed=1)
        json.dumps(obs.snapshot())
        text = obs.render_prometheus()
        # one counter series per CacheStats field, and no other
        series = set(re.findall(r"^(repro_cache_\w+_total) ", text, re.M))
        assert series == {f"repro_cache_{field.name}_total"
                          for field in dataclasses.fields(CacheStats)}
        assert "repro_registry_kernels" in text


# ---------------------------------------------------------------------- #
# determinism: observability never changes sampled values
# ---------------------------------------------------------------------- #
class TestByteIdentity:
    BACKENDS = ("serial", "vectorized", "threads", "auto")
    SEEDS = (1, 7, 42)

    def _draws(self, matrix, backend):
        return [repro.sample_symmetric_kdpp_parallel(
            matrix, 3, seed=seed, backend=backend).subset
            for seed in self.SEEDS]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_direct_sampling_identical_under_obs(self, small_psd, backend):
        baseline = self._draws(small_psd, backend)
        obs.enable()
        with_obs = self._draws(small_psd, backend)
        assert with_obs == baseline

    def test_fused_and_unfused_identical_under_obs(self, small_psd):
        def fused_draws():
            with repro.serve(small_psd, registry=repro.KernelRegistry()) as session:
                scheduler = repro.RoundScheduler(session)
                for seed in self.SEEDS:
                    scheduler.submit(3, seed=seed)
                return [r.subset for r in scheduler.drain()]

        def unfused_draws():
            # method="parallel" matches the scheduler's default, so fused
            # and unfused draws are comparable draw for draw
            with repro.serve(small_psd, registry=repro.KernelRegistry()) as session:
                return [session.sample(3, seed=seed, method="parallel").subset
                        for seed in self.SEEDS]

        base_fused, base_unfused = fused_draws(), unfused_draws()
        assert base_fused == base_unfused
        obs.enable()
        assert fused_draws() == base_fused
        assert unfused_draws() == base_unfused

    def test_cluster_identical_under_obs(self, small_psd):
        def draws():
            with repro.serve_cluster(small_psd, nodes=2) as session:
                return [session.sample(k=3, seed=seed).subset
                        for seed in self.SEEDS]

        baseline = draws()
        obs.enable()
        assert draws() == baseline

    def test_intermediate_sampler_identical_and_traced(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((40, 4))
        kernel = repro.LowRankKernel(B)
        baseline = repro.sample_kdpp_intermediate(kernel, 3, seed=11)
        obs.enable()
        again = repro.sample_kdpp_intermediate(kernel, 3, seed=11)
        assert again == baseline
