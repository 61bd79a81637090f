"""Serving layer: registry, factorization cache, sessions, round fusion.

The core contract under test: the cache and the scheduler change wall-clock
only — fixed-seed samples are identical with and without cached
factorizations, and fused or unfused, on every execution backend.
"""

import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.entropic import EntropicSamplerConfig
from repro.dpp.spectral import sample_dpp_spectral, sample_kdpp_spectral, symmetrized_eigh
from repro.service import (
    FactorizationCache,
    KernelFactorization,
    KernelRegistry,
    RoundScheduler,
    SamplerSession,
    serve,
)
from repro.utils.fingerprint import array_fingerprint
from repro.utils.rng import substream
from repro.workloads import random_npsd_ensemble, random_psd_ensemble

BACKENDS = ("serial", "vectorized", "threads")


@pytest.fixture(scope="module")
def psd():
    return random_psd_ensemble(24, rank=12, seed=0)


@pytest.fixture()
def registry():
    return KernelRegistry()


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
class TestFingerprint:
    def test_content_addressed(self, psd):
        assert array_fingerprint(psd) == array_fingerprint(psd.copy())
        assert array_fingerprint(psd) != array_fingerprint(psd + 1e-12)

    def test_layout_independent(self, psd):
        assert array_fingerprint(psd) == array_fingerprint(np.asfortranarray(psd))

    def test_extra_parameters_change_key(self, psd):
        assert array_fingerprint(psd, extra=("symmetric",)) != array_fingerprint(
            psd, extra=("nonsymmetric",))


# ---------------------------------------------------------------------- #
# factorization cache
# ---------------------------------------------------------------------- #
class TestFactorizationCache:
    def test_artifacts_match_sampler_numerics(self, psd):
        fact = FactorizationCache().factorization(psd)
        dist = repro.dpp.SymmetricKDPP(psd, 5)
        np.testing.assert_array_equal(fact.eigenvalues, dist.eigenvalues)
        np.testing.assert_array_equal(fact.factor, dist.factor)
        np.testing.assert_array_equal(fact.factor_gram, dist.factor_gram)
        w, v = fact.eigh_pair
        w2, v2 = symmetrized_eigh(psd)
        np.testing.assert_array_equal(w, w2)
        np.testing.assert_array_equal(v, v2)
        dpp = repro.dpp.SymmetricDPP(psd)
        np.testing.assert_array_equal(fact.eigenvalues, dpp.eigenvalues)
        np.testing.assert_array_equal(fact.factor, dpp.factor)
        np.testing.assert_array_equal(fact.factor_gram, dpp.factor_gram)
        np.testing.assert_array_equal(fact.size_distribution, dpp.cardinality_distribution())

    def test_hit_miss_accounting(self, psd):
        cache = FactorizationCache(capacity=4)
        first = cache.factorization(psd)
        second = cache.factorization(psd.copy())  # equal content -> same entry
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = FactorizationCache(capacity=2)
        matrices = [random_psd_ensemble(6, seed=s) for s in range(3)]
        a, b = cache.factorization(matrices[0]), cache.factorization(matrices[1])
        cache.factorization(matrices[0])           # touch a -> b becomes LRU
        cache.factorization(matrices[2])           # evicts b
        assert cache.stats.evictions == 1
        assert matrices[0] in cache and matrices[2] in cache
        assert matrices[1] not in cache
        assert cache.factorization(matrices[0]) is a
        assert cache.factorization(matrices[1]) is not b  # recomputed after eviction

    def test_explicit_invalidation(self, psd):
        cache = FactorizationCache()
        entry = cache.factorization(psd)
        assert cache.invalidate(entry.fingerprint)
        assert not cache.invalidate(entry.fingerprint)
        assert cache.stats.invalidations == 1
        assert cache.factorization(psd) is not entry

    def test_zero_capacity_disables_storage(self, psd):
        cache = FactorizationCache(capacity=0)
        assert cache.factorization(psd) is not cache.factorization(psd)
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_clear(self, psd):
        cache = FactorizationCache()
        cache.factorization(psd)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_cleared_entry_recomputes_but_samples_identically(self, psd):
        cache = FactorizationCache()
        session = serve(psd, name="cleared", registry=KernelRegistry(cache))
        want = session.sample(k=5, seed=77).subset
        cache.clear()  # warm artifacts reclaimed...
        misses = cache.stats.misses
        assert session.sample(k=5, seed=77).subset == want  # ...samples unchanged
        assert cache.stats.misses == misses + 1  # ...recomputed

    def test_nbytes_grows_with_materialization(self, psd):
        cache = FactorizationCache()
        fact = cache.factorization(psd)
        before = cache.nbytes
        fact.factor_gram  # materializes factor + gram
        assert cache.nbytes > before

    def test_thread_safe_single_computation(self, psd):
        cache = FactorizationCache()
        results = []

        def worker():
            results.append(cache.factorization(psd).factor)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestKernelRegistry:
    def test_register_and_lookup(self, registry, psd):
        entry = registry.register("movies", psd)
        assert "movies" in registry and registry.get("movies") is entry
        assert not entry.matrix.flags.writeable
        assert registry.names() == ["movies"]

    def test_reregister_same_content_is_idempotent(self, registry, psd):
        first = registry.register("movies", psd)
        second = registry.register("movies", psd.copy())
        assert first is second

    def test_conflicting_content_requires_overwrite(self, registry, psd):
        registry.register("movies", psd)
        other = random_psd_ensemble(24, seed=9)
        with pytest.raises(ValueError, match="overwrite"):
            registry.register("movies", other)
        entry = registry.register("movies", other, overwrite=True)
        assert entry.fingerprint != array_fingerprint(psd, extra=("symmetric", None, None))

    def test_overwrite_invalidates_stale_factorization(self, registry, psd):
        entry = registry.register("movies", psd)
        registry.cache.factorization(entry)
        registry.register("movies", random_psd_ensemble(24, seed=9), overwrite=True)
        assert registry.cache.stats.invalidations == 1

    def test_validation_happens_at_registration(self, registry):
        not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError):
            registry.register("bad", not_psd)

    def test_partition_requires_structure(self, registry, psd):
        with pytest.raises(ValueError, match="parts"):
            registry.register("slates", psd, kind="partition")
        with pytest.raises(ValueError, match="partition"):
            registry.register("slates", psd, parts=[[0, 1]], counts=[1])

    def test_unregister(self, registry, psd):
        entry = registry.register("movies", psd)
        registry.cache.factorization(entry)
        assert registry.unregister("movies")
        assert "movies" not in registry
        assert not registry.unregister("movies")
        assert registry.cache.stats.invalidations == 1

    def test_unknown_kind_and_name(self, registry, psd):
        with pytest.raises(ValueError, match="kind"):
            registry.register("x", psd, kind="planar")
        with pytest.raises(KeyError, match="no kernel registered"):
            registry.get("missing")


# ---------------------------------------------------------------------- #
# sessions: cached sampling identical to the cold path
# ---------------------------------------------------------------------- #
class TestSamplerSession:
    def test_spectral_kdpp_identical_to_cold(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        for seed in range(5):
            assert session.sample(k=5, seed=seed).subset == sample_kdpp_spectral(psd, 5, seed=seed)

    def test_spectral_dpp_identical_to_cold(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        for seed in range(5):
            assert session.sample(seed=seed).subset == sample_dpp_spectral(psd, seed=seed)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_kdpp_identical_to_cold(self, registry, psd, backend):
        session = serve(psd, name="m", registry=registry)
        warm = session.sample(k=6, seed=3, method="parallel", backend=backend)
        cold = repro.sample_symmetric_kdpp_parallel(psd, 6, seed=3, backend=backend)
        assert warm.subset == cold.subset
        assert warm.report.rounds == cold.report.rounds

    def test_parallel_unconstrained_identical_to_cold(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        warm = session.sample(seed=4, method="parallel")
        cold = repro.sample_symmetric_dpp_parallel(psd, seed=4)
        assert warm.subset == cold.subset
        assert warm.report.extra.get("sampled_cardinality") == cold.report.extra.get("sampled_cardinality")

    def test_nonsymmetric_identical_to_cold(self, registry):
        L = random_npsd_ensemble(18, seed=2)
        session = serve(L, name="ns", kind="nonsymmetric", registry=registry)
        cfg = EntropicSamplerConfig(c=0.3, epsilon=0.1)
        warm = session.sample(k=4, seed=5, config=cfg)
        cold = repro.sample_nonsymmetric_kdpp_parallel(L, 4, config=cfg, seed=5)
        assert warm.subset == cold.subset
        # unconstrained (Remark 15 cardinality round)
        warm = session.sample(seed=6)
        cold = repro.sample_nonsymmetric_dpp_parallel(L, seed=6)
        assert warm.subset == cold.subset

    def test_partition_identical_to_cold(self, registry):
        L = random_psd_ensemble(12, seed=3)
        parts, counts = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]], [1, 1, 1]
        session = serve(L, name="p", kind="partition", parts=parts, counts=counts,
                        registry=registry)
        cfg = EntropicSamplerConfig(c=0.3, epsilon=0.1)
        warm = session.sample(seed=7, config=cfg)
        cold = repro.sample_partition_dpp_parallel(L, parts, counts, config=cfg, seed=7)
        assert warm.subset == cold.subset

    def test_distribution_objects_are_memoized(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        assert session.distribution(5) is session.distribution(5)
        assert session.distribution(5) is not session.distribution(6)

    def test_serve_same_matrix_shares_registration(self, registry, psd):
        a = serve(psd, registry=registry)
        b = serve(psd.copy(), registry=registry)
        assert a.entry is b.entry
        assert len(registry) == 1

    def test_session_stats(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        session.sample(k=4, seed=0)
        session.sample(k=4, seed=1)
        stats = session.stats
        assert stats["samples_served"] == 2
        assert stats["cache"]["misses"] == 1

    def test_infeasible_k_raises_like_cold_path(self, registry):
        low_rank = random_psd_ensemble(10, rank=3, seed=0)
        session = serve(low_rank, name="lr", registry=registry)
        with pytest.raises(ValueError, match="zero mass"):
            session.sample(k=7, seed=0, method="parallel")
        # a nonsymmetric k outside [0, n] is refused before its tables are built
        nonsymmetric = serve(random_npsd_ensemble(10, seed=0), name="ns", kind="nonsymmetric",
                             registry=registry)
        for k, message in ((11, "exceeds ground set size"), (-1, "must be >= 0")):
            with pytest.raises(ValueError, match=message):
                nonsymmetric.sample(k=k, seed=0)
        built = nonsymmetric.factorization.materialized
        assert not any("partition_tables" in key for key in built)

    def test_nonsymmetric_tables_kept_for_one_k(self, registry):
        # each k's torus tables take (n + 1) n² complex entries; serving many
        # k (fixed, then unconstrained draws of a random k each) keeps one set
        n = 40
        one_set = (n + 1) * (n * n + 1) * 16
        session = serve(random_npsd_ensemble(n, seed=2), name="nsk", kind="nonsymmetric",
                        registry=registry)
        tracemalloc.start()
        try:
            for k in (2, 3, 4, 5, 6):
                session.sample(k=k, seed=k)
            for seed in range(3):
                session.sample(seed=seed)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = [key for key in session.factorization.materialized if "partition_tables" in key]
        assert len(tables) == 1
        assert session.factorization.nbytes < 2 * one_set
        assert retained < 2 * one_set

    def test_served_nonsymmetric_dpp_computes_its_normalizer_once(self, registry, monkeypatch):
        n = 100
        session = serve(random_npsd_ensemble(n, seed=0), name="nsz", kind="nonsymmetric",
                        registry=registry)
        dist = session.distribution()
        sizes = []
        det = np.linalg.det

        def recording(a):
            sizes.append(np.shape(a)[-1])
            return det(a)

        monkeypatch.setattr(np.linalg, "det", recording)
        for _ in range(10):
            dist.counting_batch([(0,), (1, 2), ()])
        assert sizes.count(n) == 1
        # it travels with the payload: a worker rebuilding it runs no det(I + L)
        arrays, params = dist.worker_payload()
        sizes.clear()
        rebuilt = type(dist).from_worker_payload(arrays, params)
        assert rebuilt.partition_function() == dist.partition_function()
        assert sizes == []

    def test_partition_rejects_wrong_k(self, registry):
        L = random_psd_ensemble(6, seed=3)
        session = serve(L, name="p", kind="partition", parts=[[0, 1, 2], [3, 4, 5]],
                        counts=[1, 1], registry=registry)
        with pytest.raises(ValueError, match="fixed cardinality"):
            session.sample(k=5, seed=0)

    def test_spectral_rejects_nonsymmetric(self, registry):
        L = random_npsd_ensemble(8, seed=1)
        session = serve(L, name="ns", kind="nonsymmetric", registry=registry)
        with pytest.raises(ValueError, match="spectral"):
            session.sample(k=2, seed=0, method="spectral")


# ---------------------------------------------------------------------- #
# round scheduler: fused == unfused
# ---------------------------------------------------------------------- #
class TestRoundScheduler:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_equals_unfused(self, registry, psd, backend):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session, backend=backend)
        seeds = [20, 21, 22, 23]
        for seed in seeds:
            scheduler.submit(5, seed=seed)
        fused = [r.subset for r in scheduler.drain()]
        unfused = [session.sample(k=5, seed=s, method="parallel", backend=backend).subset
                   for s in seeds]
        assert fused == unfused

    def test_fusion_reduces_executed_batches(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session)
        for seed in range(4):
            scheduler.submit(5, seed=100 + seed)
        scheduler.drain()
        assert scheduler.executed_batches < scheduler.submitted_batches
        assert scheduler.fused_rounds > 0
        assert scheduler.shared_work > 0

    def test_mixed_cardinalities_fuse_safely(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session)
        jobs = [(3, 31), (5, 32), (7, 33)]
        for k, seed in jobs:
            scheduler.submit(k, seed=seed)
        results = scheduler.drain()
        for (k, seed), result in zip(jobs, results):
            assert len(result.subset) == k
            assert result.subset == session.sample(k=k, seed=seed, method="parallel").subset

    def test_default_seeds_are_deterministic_substreams(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session, seed=99)
        tickets = [scheduler.submit(4) for _ in range(3)]
        fused = [r.subset for r in scheduler.drain()]
        expected = [session.sample(k=4, seed=substream(99, t.index), method="parallel").subset
                    for t in tickets]
        assert fused == expected

    def test_drain_empty_is_noop(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        assert RoundScheduler(session).drain() == []

    def test_errors_propagate_and_do_not_wedge(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session)
        scheduler.submit(5, seed=1)
        bad = scheduler.submit(200, seed=2)  # k > n: must fail cleanly
        with pytest.raises(ValueError):
            scheduler.drain()
        assert bad.error is not None
        # the scheduler is reusable after a failed drain
        scheduler.submit(5, seed=3)
        results = scheduler.drain()
        assert results[0].subset == session.sample(k=5, seed=3, method="parallel").subset

    def test_session_submit_drain_convenience(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        session.submit(4, seed=50)
        session.submit(4, seed=51)
        results = session.drain()
        assert [len(r.subset) for r in results] == [4, 4]
        assert "scheduler" in session.stats

    def test_submit_rejects_scheduler_owned_kwargs(self, registry, psd):
        scheduler = RoundScheduler(serve(psd, name="m", registry=registry))
        with pytest.raises(TypeError, match="backend"):
            scheduler.submit(4, seed=1, backend="vectorized")
        with pytest.raises(ValueError, match="unknown sampling method"):
            scheduler.submit(4, seed=1, method="hkpv")

    def test_submit_rejects_spectral_on_nonsymmetric(self, registry):
        L = random_npsd_ensemble(10, seed=4)
        session = serve(L, name="npsd", kind="nonsymmetric", registry=registry)
        scheduler = RoundScheduler(session)
        with pytest.raises(ValueError, match="symmetric"):
            scheduler.submit(3, seed=1, method="spectral")

    def test_session_scheduler_settings_conflict_raises(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        session.scheduler(backend="serial")
        with pytest.raises(ValueError, match="already exists"):
            session.scheduler(backend="vectorized")


# ---------------------------------------------------------------------- #
# review-hardening regressions
# ---------------------------------------------------------------------- #
class TestServiceHardening:
    def test_factorization_defensively_copies_mutable_input(self, psd):
        cache = FactorizationCache()
        mutable = psd.copy()
        fact = cache.factorization(mutable)
        mutable[0, 0] += 1.0  # caller mutates after caching
        # lazily materialized artifacts still reflect the fingerprinted content
        np.testing.assert_array_equal(fact.eigenvalues,
                                      FactorizationCache().factorization(psd).eigenvalues)

    def test_symmetric_parallel_honors_explicit_config(self, registry, psd):
        from repro.core.batched import BatchedSamplerConfig

        session = serve(psd, name="m", registry=registry)
        cfg = BatchedSamplerConfig(batch_size=lambda k: 1)
        warm = session.sample(k=4, seed=2, method="parallel", config=cfg)
        cold = repro.sample_symmetric_kdpp_parallel(psd, 4, seed=2, config=cfg)
        assert warm.subset == cold.subset
        assert warm.report.batch_sizes == [1, 1, 1, 1]
        with pytest.raises(TypeError, match="BatchedSamplerConfig"):
            session.sample(k=4, seed=2, method="parallel",
                           config=EntropicSamplerConfig())

    def test_serve_auto_names_distinguish_kinds(self, psd):
        registry = KernelRegistry()
        sym = serve(psd, registry=registry)
        # same matrix happens to be nPSD too; must not collide on the name
        nonsym = serve(psd, kind="nonsymmetric", registry=registry)
        assert sym.entry is not nonsym.entry
        assert len(registry) == 2

    def test_serve_by_name_rejects_registration_args(self, registry, psd):
        registry.register("movies", psd)
        with pytest.raises(ValueError, match="already registered"):
            serve("movies", registry=registry, name="other")
        with pytest.raises(ValueError, match="kind"):
            serve("movies", registry=registry, kind="nonsymmetric")
        assert serve("movies", registry=registry).entry is registry.get("movies")

    def test_substream_rejects_irreproducible_roots(self):
        with pytest.raises(TypeError, match="reproducible"):
            substream(None, 0)
        with pytest.raises(TypeError, match="reproducible"):
            substream(np.random.default_rng(0), 0)
        a = substream(5, 3).random(4)
        b = substream(5, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_drain_waves_bound_concurrency(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = RoundScheduler(session, max_concurrency=2)
        seeds = list(range(60, 65))
        for seed in seeds:
            scheduler.submit(4, seed=seed)
        waved = [r.subset for r in scheduler.drain()]
        expected = [session.sample(k=4, seed=s, method="parallel").subset for s in seeds]
        assert waved == expected
        with pytest.raises(ValueError, match="max_concurrency"):
            RoundScheduler(session, max_concurrency=0)


# ---------------------------------------------------------------------- #
# registry lifecycle: ephemeral registrations, TTL, session close
# ---------------------------------------------------------------------- #
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRegistryLifecycle:
    def test_serve_matrix_registration_is_ephemeral(self, psd):
        registry = KernelRegistry()
        session = serve(psd, registry=registry)
        assert registry.is_ephemeral(session.entry.name)
        assert len(registry) == 1
        session.close()

    def test_named_registration_is_permanent(self, psd):
        registry = KernelRegistry(anonymous_ttl=0.0)
        session = serve(psd, name="movies", registry=registry)
        session.close()
        registry.sweep()
        assert "movies" in registry

    def test_close_releases_and_ttl_reclaims(self, psd):
        clock = _FakeClock()
        registry = KernelRegistry(anonymous_ttl=10.0, clock=clock)
        session = serve(psd, registry=registry)
        name = session.entry.name
        clock.advance(100.0)
        registry.sweep()  # pinned by the open session: must survive any idle time
        assert name in registry
        session.close()
        clock.advance(9.0)
        registry.sweep()
        assert name in registry  # idle but not yet expired
        clock.advance(2.0)
        assert registry.sweep() == 1
        assert name not in registry
        # the cached factorization was invalidated with the registration
        assert session.entry.fingerprint not in registry.cache

    def test_ttl_zero_reclaims_on_close(self, psd):
        registry = KernelRegistry(anonymous_ttl=0.0)
        session = serve(psd, registry=registry)
        name = session.entry.name
        session.close()
        assert name not in registry

    def test_second_serve_repins_idle_entry(self, psd):
        clock = _FakeClock()
        registry = KernelRegistry(anonymous_ttl=10.0, clock=clock)
        first = serve(psd, registry=registry)
        first.close()
        clock.advance(5.0)
        second = serve(psd, registry=registry)  # same content: same entry, repinned
        assert second.entry.name == first.entry.name
        clock.advance(100.0)
        registry.sweep()
        assert second.entry.name in registry
        second.close()

    def test_close_is_idempotent_and_blocks_sampling(self, psd):
        registry = KernelRegistry()
        session = serve(psd, registry=registry)
        session.sample(k=3, seed=1)
        session.close()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.sample(k=3, seed=1)
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(3, seed=1)

    def test_context_manager_closes(self, psd):
        registry = KernelRegistry(anonymous_ttl=0.0)
        with serve(psd, registry=registry) as session:
            assert len(session.sample(k=3, seed=5).subset) == 3
            name = session.entry.name
        assert session.closed
        assert name not in registry

    def test_explicit_register_promotes_ephemeral(self, psd):
        registry = KernelRegistry(anonymous_ttl=0.0)
        session = serve(psd, registry=registry)
        name = session.entry.name
        registry.register(name, psd)  # explicit (permanent) re-registration
        session.close()
        assert name in registry


# ---------------------------------------------------------------------- #
# factorization cache: single-flight artifact computation
# ---------------------------------------------------------------------- #
class TestCacheSingleFlight:
    def test_concurrent_misses_compute_once(self, psd):
        from repro.service.cache import KernelFactorization

        fact = KernelFactorization(psd)
        computed = []
        gate = threading.Event()

        def compute():
            gate.wait(1.0)
            computed.append(threading.get_ident())
            return np.linalg.eigvalsh(0.5 * (psd + psd.T))

        results = [None] * 4

        def worker(i):
            results[i] = fact._get("artifact", compute)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(computed) == 1
        for value in results[1:]:
            assert value is results[0]

    def test_leader_failure_lets_followers_retry(self, psd):
        from repro.service.cache import KernelFactorization

        fact = KernelFactorization(psd)
        attempts = []

        def flaky():
            attempts.append(None)
            if len(attempts) == 1:
                raise RuntimeError("first compute fails")
            return "ok"

        with pytest.raises(RuntimeError, match="first compute fails"):
            fact._get("flaky", flaky)
        assert fact._get("flaky", flaky) == "ok"
        assert len(attempts) == 2

    def test_racing_sessions_build_one_distribution(self, psd):
        # 6 threads on two sessions of one kernel race the first request for
        # k = 5 with a short switch interval: one object is built and shared
        for _ in range(5):
            registry = KernelRegistry()
            registry.register("race", psd)
            sessions = [registry.session("race") for _ in range(2)]
            start, seen, errors = threading.Barrier(6), [], []

            def draw(session):
                try:
                    start.wait(timeout=10)
                    seen.append(session.distribution(5))
                except Exception as exc:  # reported below
                    errors.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=draw, args=(sessions[i % 2],))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not errors and not any(thread.is_alive() for thread in threads)
            assert len(seen) == 6 and all(dist is seen[0] for dist in seen)
            assert registry.cache.cache_info()["artifacts"]["distribution"]["misses"] == 1

    def test_different_artifacts_do_not_serialize(self, psd):
        """A slow computation of one artifact must not block another key."""
        from repro.service.cache import KernelFactorization

        fact = KernelFactorization(psd)
        slow_started = threading.Event()
        release_slow = threading.Event()

        def slow():
            slow_started.set()
            release_slow.wait(5.0)
            return "slow"

        slow_result = []
        t = threading.Thread(target=lambda: slow_result.append(fact._get("slow", slow)))
        t.start()
        assert slow_started.wait(5.0)
        # while "slow" is in flight, an independent artifact computes freely
        assert fact._get("fast", lambda: "fast") == "fast"
        release_slow.set()
        t.join()
        assert slow_result == ["slow"]


class TestSharedFingerprintInvalidation:
    def test_sweep_keeps_cache_entry_shared_with_permanent_registration(self, psd):
        clock = _FakeClock()
        registry = KernelRegistry(anonymous_ttl=0.0, clock=clock)
        registry.register("movies", psd)  # permanent, same content
        session = serve(psd, registry=registry)  # ephemeral twin
        fingerprint = session.entry.fingerprint
        assert fingerprint == registry.get("movies").fingerprint
        registry.cache.factorization(session.entry)  # warm it
        session.close()  # ttl=0: ephemeral entry reclaimed immediately
        assert session.entry.name not in registry
        # the warm factorization survives: "movies" still uses it
        assert fingerprint in registry.cache

    def test_unregister_invalidates_when_unshared(self, psd):
        registry = KernelRegistry()
        entry = registry.register("only", psd)
        registry.cache.factorization(entry)
        assert entry.fingerprint in registry.cache
        registry.unregister("only")
        assert entry.fingerprint not in registry.cache


# ---------------------------------------------------------------------- #
# spectral fusion (ISSUE 4: HKPV routed through the engine)
# ---------------------------------------------------------------------- #
class TestSpectralFusion:
    def test_fused_spectral_equals_unfused(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = session.scheduler()
        seeds = [70, 71, 72, 73]
        for seed in seeds:
            scheduler.submit(5, seed=seed, method="spectral")
        fused = [r.subset for r in scheduler.drain()]
        unfused = [session.sample(k=5, seed=s, method="spectral").subset for s in seeds]
        assert fused == unfused

    def test_fused_spectral_equals_cold_path(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = session.scheduler()
        tickets = [scheduler.submit(4, seed=80 + i, method="spectral") for i in range(3)]
        results = scheduler.drain()
        for ticket, result in zip(tickets, results):
            assert result.subset == sample_kdpp_spectral(psd, 4, seed=ticket.seed)

    def test_spectral_steps_actually_fuse(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = session.scheduler()
        for seed in range(4):
            scheduler.submit(5, seed=90 + seed, method="spectral")
        scheduler.drain()
        # 4 requests x 5 lockstep steps collapse into 5 stacked rounds
        assert scheduler.executed_batches < scheduler.submitted_batches
        assert scheduler.fused_rounds > 0

    def test_mixed_methods_drain_together(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = session.scheduler()
        spectral = scheduler.submit(4, seed=101, method="spectral")
        parallel = scheduler.submit(4, seed=102)  # method="parallel" default
        results = scheduler.drain()
        assert results[spectral.index].subset == session.sample(
            k=4, seed=101, method="spectral").subset
        assert results[parallel.index].subset == session.sample(
            k=4, seed=102, method="parallel").subset

    def test_unconstrained_spectral_fuses(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        scheduler = session.scheduler()
        tickets = [scheduler.submit(seed=110 + i, method="spectral") for i in range(3)]
        results = scheduler.drain()
        for ticket, result in zip(tickets, results):
            assert result.subset == sample_dpp_spectral(psd, seed=ticket.seed)


# ---------------------------------------------------------------------- #
# warm-up API and byte-budget eviction (ISSUE 4 satellites)
# ---------------------------------------------------------------------- #
class TestWarmup:
    def test_register_warm_materializes_artifacts(self, registry, psd):
        entry = registry.register("warmed", psd)
        registry.session("warmed").warm()
        fact = registry.cache.factorization(entry)
        names = set(fact.materialized)
        assert {"eigh", "size_distribution", "factor", "factor_gram"} <= names

    def test_session_warm_is_chainable_and_identical(self, registry, psd):
        cold = serve(psd, name="m", registry=registry).sample(k=5, seed=7).subset
        warm_session = serve(psd, name="m", registry=KernelRegistry()).warm()
        assert warm_session.sample(k=5, seed=7).subset == cold
        assert len(warm_session.factorization.materialized) >= 4

    def test_warm_partition_requires_structure(self, psd):
        # the kind is the factorization's, taken from the registered entry
        with pytest.raises(ValueError, match="parts"):
            KernelFactorization(psd, kind="partition").warm()
        with pytest.raises(ValueError, match="unknown kernel kind"):
            KernelFactorization(psd, kind="banded").warm()

    def test_register_warm_partition(self, registry):
        L = random_psd_ensemble(8, seed=9)
        parts = [[0, 1, 2, 3], [4, 5, 6, 7]]
        entry = registry.register("pwarm", L, kind="partition", parts=parts,
                                  counts=[2, 1])
        registry.session("pwarm").warm()
        fact = registry.cache.factorization(entry)
        assert any(str(key).startswith("('partition_tables'") for key in fact.materialized)

    def test_closed_session_rejects_warm(self, registry, psd):
        session = serve(psd, name="m", registry=registry)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.warm()


class TestRegistryInfo:
    def test_registry_info_rolls_up_cache_and_census(self, registry, psd):
        registry.register("a", psd)
        registry.session("a").warm()
        serve(psd, registry=registry)  # ephemeral auto-name, same content
        info = registry.registry_info()
        assert info["registered"] == 2
        assert info["ephemeral"] == 1
        names = {k["name"] for k in info["kernels"]}
        assert "a" in names
        assert info["cache"]["entries"] >= 1
        assert all({"kind", "n", "fingerprint"} <= set(k) for k in info["kernels"])
