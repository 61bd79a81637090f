"""Process execution backend: shm transport, payload round trips, backend
equivalence on every batch kind, and fixed-seed sample identity across all
backends (``serial`` / ``vectorized`` / ``threads`` / ``process`` / the
planner-driven ``auto``) on every theorem sampler — spectral included,
fused and unfused."""

import errno
import gc
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.batched import batched_sample
from repro.core.filtering import sample_bounded_dpp_filtering
from repro.distributions.generic import ExplicitDistribution
from repro.distributions.lowrank import LowRankDPP
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricDPP, SymmetricKDPP
from repro.engine import (
    ArrayRef,
    OracleBatch,
    ProcessPoolBackend,
    SerialBackend,
    SharedArrayStore,
    resolve_backend,
    shared_memory_available,
)
from repro.engine.shm import attach_shared_array
from repro.pram.tracker import Tracker
from repro.utils.subsets import all_subsets_of_size
from repro.workloads import (
    random_low_rank_factor_ensemble,
    random_npsd_ensemble,
    random_psd_ensemble,
)

BACKEND_NAMES = ("serial", "vectorized", "threads", "process")


@pytest.fixture(scope="module")
def process_backend():
    """One worker pool for the whole module (spawn cost paid once)."""
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def backends(process_backend):
    return {
        "serial": resolve_backend("serial"),
        "vectorized": resolve_backend("vectorized"),
        "threads": resolve_backend("threads"),
        "process": process_backend,
        "auto": resolve_backend("auto"),  # the planner must never change values
    }


@pytest.fixture(scope="module")
def kdpp():
    return SymmetricKDPP(random_psd_ensemble(14, seed=0), 6)


@pytest.fixture(scope="module")
def partition_dpp():
    return PartitionDPP(random_psd_ensemble(9, seed=2),
                        [[0, 1, 2, 3], [4, 5, 6, 7, 8]], [2, 1])


@pytest.fixture(scope="module")
def explicit():
    rng = np.random.default_rng(1)
    table = {s: float(rng.random()) + 0.05 for s in all_subsets_of_size(8, 3)}
    return ExplicitDistribution(8, table, cardinality=3)


def _random_subsets(rng, n, sizes, per_size=3):
    out = []
    for t in sizes:
        for _ in range(per_size):
            out.append(tuple(sorted(rng.choice(n, size=t, replace=False).tolist())))
    return out


# ---------------------------------------------------------------------- #
# batch-value equivalence against the serial reference
# ---------------------------------------------------------------------- #
class TestProcessBatchEquivalence:
    def test_counting_kdpp(self, kdpp, process_backend):
        subsets = _random_subsets(np.random.default_rng(3), kdpp.n, [0, 1, 2, 3, 6, 7])
        reference = SerialBackend().execute(OracleBatch.counting(kdpp, subsets),
                                            tracker=Tracker())
        result = process_backend.execute(OracleBatch.counting(kdpp, subsets),
                                         tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-9, atol=1e-12)
        assert result.backend == "process"

    def test_counting_nonsymmetric(self, process_backend):
        dist = NonsymmetricKDPP(random_npsd_ensemble(10, seed=4), 4)
        subsets = _random_subsets(np.random.default_rng(5), dist.n, [0, 1, 2, 4])
        reference = SerialBackend().execute(OracleBatch.counting(dist, subsets),
                                            tracker=Tracker())
        result = process_backend.execute(OracleBatch.counting(dist, subsets),
                                         tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-8, atol=1e-12)

    def test_joint_marginals_partition(self, partition_dpp, process_backend):
        subsets = _random_subsets(np.random.default_rng(6), partition_dpp.n, [0, 1, 2])
        reference = SerialBackend().execute(
            OracleBatch.joint_marginals(partition_dpp, subsets), tracker=Tracker())
        result = process_backend.execute(
            OracleBatch.joint_marginals(partition_dpp, subsets), tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-8, atol=1e-12)

    def test_joint_marginals_explicit_pickle_fallback_path(self, explicit, process_backend):
        """ExplicitDistribution has no worker spec: it ships via pickle."""
        subsets = _random_subsets(np.random.default_rng(7), explicit.n, [0, 1, 2, 3])
        reference = SerialBackend().execute(
            OracleBatch.joint_marginals(explicit, subsets), tracker=Tracker())
        result = process_backend.execute(
            OracleBatch.joint_marginals(explicit, subsets), tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-9, atol=1e-12)

    def test_log_principal_minors(self, process_backend):
        L = random_psd_ensemble(10, seed=7)
        subsets = _random_subsets(np.random.default_rng(8), 10, [0, 1, 2, 4])
        reference = SerialBackend().execute(OracleBatch.log_principal_minors(L, subsets),
                                            tracker=Tracker())
        result = process_backend.execute(OracleBatch.log_principal_minors(L, subsets),
                                         tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-9)

    def test_round_and_work_accounting(self, kdpp, process_backend):
        subsets = [(0, 1), (2, 3), (4, 5)]
        tracker = Tracker()
        process_backend.execute(OracleBatch.joint_marginals(kdpp, subsets), tracker=tracker)
        assert tracker.rounds == 1
        assert tracker.peak_machines == 3.0
        assert tracker.work > 0.0  # worker-side charges merged into the round

    def test_multi_chunk_batch_preserves_values(self, kdpp, process_backend):
        # 12 queries on 2 workers: two chunks of 6, mixing subset sizes
        subsets = _random_subsets(np.random.default_rng(9), kdpp.n, [1, 2, 3], per_size=4)
        assert len(subsets) == 12 and process_backend.workers == 2
        reference = SerialBackend().execute(OracleBatch.counting(kdpp, subsets),
                                            tracker=Tracker())
        result = process_backend.execute(OracleBatch.counting(kdpp, subsets),
                                         tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------- #
# fixed-seed sample identity: all four backends, every theorem sampler
# ---------------------------------------------------------------------- #
class TestFourBackendSamplerIdentity:
    """The acceptance contract: byte-identical samples on every backend."""

    def _assert_identical(self, run, backends):
        subsets = {name: run(backend).subset for name, backend in backends.items()}
        assert len(set(subsets.values())) == 1, subsets

    def test_symmetric_kdpp(self, backends):
        L = random_psd_ensemble(16, seed=8)
        self._assert_identical(
            lambda b: repro.sample_symmetric_kdpp_parallel(L, 6, seed=123, backend=b),
            backends)

    def test_symmetric_dpp(self, backends):
        L = random_psd_ensemble(12, seed=18)
        self._assert_identical(
            lambda b: repro.sample_symmetric_dpp_parallel(L, seed=31, backend=b),
            backends)

    def test_nonsymmetric_kdpp(self, backends):
        L = random_npsd_ensemble(12, seed=19)
        self._assert_identical(
            lambda b: repro.sample_nonsymmetric_kdpp_parallel(L, 4, seed=41, backend=b),
            backends)

    def test_nonsymmetric_dpp(self, backends):
        L = random_npsd_ensemble(10, seed=20)
        self._assert_identical(
            lambda b: repro.sample_nonsymmetric_dpp_parallel(L, seed=51, backend=b),
            backends)

    def test_partition_dpp(self, backends):
        L = random_psd_ensemble(10, seed=9)
        parts = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        self._assert_identical(
            lambda b: repro.sample_partition_dpp_parallel(L, parts, [2, 2], seed=213,
                                                          backend=b),
            backends)

    def test_bounded_dpp_filtering(self, backends):
        L = 0.05 * random_psd_ensemble(14, seed=10)
        self._assert_identical(
            lambda b: sample_bounded_dpp_filtering(L, seed=132, strategy="filter",
                                                   backend=b),
            backends)

    def test_entropic_explicit_table(self, explicit, backends):
        self._assert_identical(lambda b: batched_sample(explicit, seed=321, backend=b),
                               backends)

    def test_spectral_kdpp(self, backends):
        from repro.dpp.spectral import sample_kdpp_spectral

        L = random_psd_ensemble(14, rank=8, seed=24)
        subsets = {name: sample_kdpp_spectral(L, 5, seed=77, backend=b)
                   for name, b in backends.items()}
        assert len(set(subsets.values())) == 1, subsets

    def test_spectral_dpp(self, backends):
        from repro.dpp.spectral import sample_dpp_spectral

        L = random_psd_ensemble(12, rank=6, seed=25)
        subsets = {name: sample_dpp_spectral(L, seed=78, backend=b)
                   for name, b in backends.items()}
        assert len(set(subsets.values())) == 1, subsets

    def test_fused_spectral_on_process_backend(self, process_backend):
        """Stacked HKPV steps through the process-backed scheduler keep
        seed identity (the projection kind is fixed-route on every backend)."""
        registry = repro.KernelRegistry()
        L = random_psd_ensemble(20, rank=12, seed=26)
        with repro.serve(L, registry=registry) as session:
            scheduler = repro.RoundScheduler(session, backend=process_backend)
            seeds = [71, 72, 73]
            for seed in seeds:
                scheduler.submit(5, seed=seed, method="spectral")
            fused = [result.subset for result in scheduler.drain()]
            unfused = [session.sample(k=5, seed=seed, method="spectral").subset
                       for seed in seeds]
        assert fused == unfused

    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric", "partition"])
    def test_fused_equals_unfused_on_process_backend(self, kind, process_backend):
        """Scheduler-fused rounds through worker processes keep seed identity
        for every kernel family the serving layer understands."""
        registry = repro.KernelRegistry()
        if kind == "symmetric":
            L = random_psd_ensemble(20, rank=12, seed=21)
            session = repro.serve(L, registry=registry)
            k = 5
        elif kind == "nonsymmetric":
            L = random_npsd_ensemble(12, seed=22)
            session = repro.serve(L, kind=kind, registry=registry)
            k = 4
        else:
            L = random_psd_ensemble(10, seed=23)
            session = repro.serve(L, kind=kind, registry=registry,
                                  parts=[[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]],
                                  counts=[2, 2])
            k = 4
        with session:
            scheduler = repro.RoundScheduler(session, backend=process_backend)
            seeds = [61, 62, 63]
            for seed in seeds:
                scheduler.submit(k, seed=seed)
            fused = [result.subset for result in scheduler.drain()]
            unfused = [session.sample(k=k, seed=seed, method="parallel",
                                      backend="serial").subset
                       for seed in seeds]
        assert fused == unfused
        stats = scheduler.stats
        assert stats["executed_batches"] < stats["submitted_batches"]


def _recording(function, calls):
    def wrapper(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------- #
# payload round-trip contract
# ---------------------------------------------------------------------- #
class TestPayloadRoundTrip:
    DISTS = ["kdpp", "partition_dpp", "explicit"]

    @pytest.fixture
    def by_name(self, kdpp, partition_dpp, explicit):
        return {"kdpp": kdpp, "partition_dpp": partition_dpp, "explicit": explicit}

    @pytest.mark.parametrize("name", DISTS)
    def test_pickle_round_trip_preserves_values(self, name, by_name):
        dist = by_name[name]
        subsets = _random_subsets(np.random.default_rng(11), dist.n, [0, 1, 2])
        batch = OracleBatch.counting(dist, subsets)
        payload = pickle.loads(pickle.dumps(batch.to_payload()))
        rebuilt = payload.to_batch()
        assert rebuilt.kind == batch.kind
        assert rebuilt.subsets == batch.subsets
        original = SerialBackend().execute(batch, tracker=Tracker())
        roundtripped = SerialBackend().execute(rebuilt, tracker=Tracker())
        np.testing.assert_allclose(roundtripped.values, original.values,
                                   rtol=1e-12, atol=0.0)

    def test_normalizer_travels_with_payload(self, kdpp):
        batch = OracleBatch.joint_marginals(kdpp, [(0,), (1,)])
        z = batch.normalizer()
        payload = pickle.loads(pickle.dumps(batch.to_payload()))
        assert payload.normalizer == z
        assert payload.to_batch().normalizer() == z

    def test_warm_payload_spares_workers_every_decomposition(self, monkeypatch):
        # a warm kernel ships its spectra (a partition or nonsymmetric k-DPP
        # kernel its root's node tables, children included), so a worker
        # rebuilding it from the payload runs no eigh / eigvalsh / eigvals /
        # inv and answers with the same bits
        root = SymmetricKDPP(random_psd_ensemble(14, seed=3), 6)
        partition = PartitionDPP(random_psd_ensemble(14, seed=3),
                                 [list(range(7)), list(range(7, 14))], [3, 3])
        nonsymmetric = NonsymmetricKDPP(random_npsd_ensemble(14, seed=3), 6)
        # nine items deep in a 24-item kernel, a child re-roots on its Schur
        # complement and ships its own tables, as do its children
        rerooted = NonsymmetricKDPP(random_npsd_ensemble(24, seed=3), 12).condition(range(9))
        dpp = SymmetricDPP(random_psd_ensemble(14, seed=3))
        lowrank = LowRankDPP(random_low_rank_factor_ensemble(14, 5, seed=3)[0])
        queries = [(0,), (1, 5), ()]
        for dist in (root, root.condition((2,)), partition, partition.condition((2,)),
                     nonsymmetric, nonsymmetric.condition((2,)), rerooted, rerooted.condition((2,)),
                     dpp, dpp.condition((2,)), lowrank):
            expected = dist.counting_batch(queries)  # warms what these queries read
            calls = []
            with monkeypatch.context() as patch:
                for name in ("eigh", "eigvalsh", "eigvals", "inv"):
                    patch.setattr(np.linalg, name, _recording(getattr(np.linalg, name), calls))
                payload = OracleBatch.counting(dist, queries).to_payload()
                values = payload.build_distribution().counting_batch(queries)
            assert calls == []
            np.testing.assert_array_equal(values, expected)

    def test_matrix_batch_round_trip(self):
        L = random_psd_ensemble(8, seed=12)
        batch = OracleBatch.log_principal_minors(L, [(0, 1), (2,), ()])
        rebuilt = pickle.loads(pickle.dumps(batch.to_payload())).to_batch()
        np.testing.assert_array_equal(rebuilt.matrix, L)
        original = SerialBackend().execute(batch, tracker=Tracker())
        roundtripped = SerialBackend().execute(rebuilt, tracker=Tracker())
        np.testing.assert_allclose(roundtripped.values, original.values)

    def test_spec_key_caches_distribution_rebuilds(self, kdpp):
        payload = OracleBatch.counting(kdpp, [(0,)]).to_payload()
        cache = {}
        first = payload.to_batch(cache=cache).distribution
        second = payload.to_batch(cache=cache).distribution
        assert first is second
        assert list(cache) == [payload.spec["key"]]

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_property_shm_round_trip(self, data):
        """Property test: publish → attach round-trips arbitrary batches."""
        if not shared_memory_available():  # pragma: no cover - sandboxed hosts
            pytest.skip("shared memory unavailable")
        n = data.draw(st.integers(min_value=2, max_value=8), label="n")
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        seed = data.draw(st.integers(min_value=0, max_value=2**20), label="seed")
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n, n))
        dist = SymmetricKDPP(B @ B.T + 1e-6 * np.eye(n), k, validate=False)
        sizes = data.draw(st.lists(st.integers(min_value=0, max_value=n),
                                   min_size=1, max_size=5), label="sizes")
        subsets = [tuple(sorted(rng.choice(n, size=t, replace=False).tolist()))
                   for t in sizes]
        batch = OracleBatch.counting(dist, subsets)
        store = SharedArrayStore(capacity=8)
        try:
            payload = pickle.loads(pickle.dumps(batch.to_payload(publish=store.publish)))
            for token in payload.spec["arrays"].values():
                assert isinstance(token, ArrayRef) and token.name is not None
            rebuilt = payload.to_batch(attach=attach_shared_array)
            original = SerialBackend().execute(batch, tracker=Tracker())
            roundtripped = SerialBackend().execute(rebuilt, tracker=Tracker())
            np.testing.assert_allclose(roundtripped.values, original.values,
                                       rtol=1e-12, atol=0.0)
        finally:
            from repro.engine.shm import release_worker_caches

            release_worker_caches()
            store.close()

    def test_publish_deduplicates_by_content(self):
        store = SharedArrayStore(capacity=4)
        try:
            a = np.arange(9.0).reshape(3, 3)
            ref1 = store.publish(a)
            ref2 = store.publish(a.copy())  # equal content, different object
            assert ref1.name == ref2.name
            assert len(store) == 1
            np.testing.assert_array_equal(attach_shared_array(ref1), a)
        finally:
            from repro.engine.shm import release_worker_caches

            release_worker_caches()
            store.close()

    def test_evicted_attachment_keeps_its_views_mapped(self):
        # a worker-cached distribution can outlive its arrays' attach-cache
        # entries: views of evicted segments must stay readable
        from repro.engine.shm import _ATTACH_CAPACITY, release_worker_caches

        if not shared_memory_available():  # pragma: no cover - sandboxed hosts
            pytest.skip("shared memory unavailable")
        store = SharedArrayStore(capacity=_ATTACH_CAPACITY + 4)
        try:
            arrays = [np.full(16, float(i)) for i in range(_ATTACH_CAPACITY + 2)]
            views = [attach_shared_array(store.publish(a)) for a in arrays]
            gc.collect()
            for view, a in zip(views, arrays):
                np.testing.assert_array_equal(view, a)
        finally:
            release_worker_caches()
            store.close()


# ---------------------------------------------------------------------- #
# graceful degradation
# ---------------------------------------------------------------------- #
class _Unpicklable(ExplicitDistribution):
    """A distribution the process backend cannot ship (closure state)."""

    def __init__(self, inner):
        super().__init__(inner.n, inner.as_dict(), cardinality=inner.cardinality)
        self._closure = lambda: None  # lambdas cannot pickle


class TestFallback:
    def test_shm_unavailable_degrades_to_vectorized(self, kdpp, monkeypatch):
        monkeypatch.setattr("repro.engine.shm._SHM_AVAILABLE", False)
        backend = ProcessPoolBackend(max_workers=2)
        try:
            with pytest.warns(RuntimeWarning, match="degraded to vectorized"):
                result = backend.execute(OracleBatch.counting(kdpp, [(0,), (1,)]),
                                         tracker=Tracker())
            reference = SerialBackend().execute(OracleBatch.counting(kdpp, [(0,), (1,)]),
                                                tracker=Tracker())
            np.testing.assert_allclose(result.values, reference.values, rtol=1e-9)
        finally:
            backend.close()

    def test_pool_that_cannot_start_degrades_after_bounded_retries(self, kdpp, monkeypatch):
        """A pool whose ``submit`` fails to spawn is retried for at most
        MAX_POOL_REBUILDS batches, then the backend degrades for good."""
        submits = []

        class _UnstartablePool:  # stands in for ProcessPoolExecutor: no process starts
            def __init__(self, *args, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                submits.append(1)
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _UnstartablePool)
        monkeypatch.setattr("repro.engine.backends._pin_worker_blas_threads", lambda: None)
        subsets = [(0,), (1,), (0, 1)]
        reference = SerialBackend().execute(OracleBatch.counting(kdpp, subsets),
                                            tracker=Tracker()).values
        backend = ProcessPoolBackend(max_workers=2)
        assert backend.MAX_POOL_REBUILDS == 3
        degraded_on, submits_per_batch = [], []
        try:
            for index in range(6):
                before = len(submits)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    values = backend.execute(OracleBatch.counting(kdpp, subsets),
                                             tracker=Tracker()).values
                np.testing.assert_array_equal(values, reference)
                submits_per_batch.append(len(submits) - before)
                degraded_on += [index for w in caught
                                if issubclass(w.category, RuntimeWarning)
                                and "degraded to vectorized" in str(w.message)]
        finally:
            backend.close()
        assert degraded_on == [2]
        assert submits_per_batch == [1, 1, 1, 0, 0, 0]
        assert backend._degraded is not None

    def test_unshippable_distribution_falls_back_per_batch(self, explicit, process_backend):
        dist = _Unpicklable(explicit)
        subsets = [(0,), (1,), (0, 1)]
        with pytest.warns(RuntimeWarning, match="cannot ship _Unpicklable"):
            result = process_backend.execute(OracleBatch.counting(dist, subsets),
                                             tracker=Tracker())
        reference = SerialBackend().execute(OracleBatch.counting(dist, subsets),
                                            tracker=Tracker())
        np.testing.assert_allclose(result.values, reference.values, rtol=1e-12)
        # the backend did not permanently degrade: shippable batches still fan out
        assert process_backend._degraded is None

    def test_configure_backend_accepts_process(self):
        previous = repro.current_backend()
        try:
            installed = repro.configure_backend("process", max_workers=2)
            assert isinstance(installed, ProcessPoolBackend)
            assert repro.current_backend() is installed
        finally:
            repro.configure_backend(previous)

    def test_named_backend_resolution_is_memoized(self):
        """String specs share one instance — one worker pool, not one per call."""
        assert resolve_backend("process") is resolve_backend("process")
        assert resolve_backend("threads") is resolve_backend("threads")
        assert resolve_backend("process").workers >= 1
