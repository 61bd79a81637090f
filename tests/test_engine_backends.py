"""Tests for the oracle-batch engine: backend equivalence, configuration,
normalizer caching, schedule edge cases, and oracle validation."""

import numpy as np
import pytest

from repro.core.batched import batch_schedule, batched_sample
from repro.core.filtering import sample_bounded_dpp_filtering
from repro.core.partition import sample_partition_dpp_parallel
from repro.core.symmetric import sample_symmetric_kdpp_parallel
from repro.distributions.base import CountingOracleError, SubsetDistribution
from repro.distributions.generic import ExplicitDistribution, uniform_distribution_on_size_k
from repro.dpp.nonsymmetric import NonsymmetricKDPP
from repro.dpp.partition import PartitionDPP
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import (
    OracleBatch,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
    configure_backend,
    current_backend,
    execute_batch,
    resolve_backend,
    use_backend,
)
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads import random_npsd_ensemble, random_psd_ensemble

BACKENDS = [SerialBackend(), VectorizedBackend(), ThreadPoolBackend(max_workers=4)]
BACKEND_IDS = ["serial", "vectorized", "threads"]


@pytest.fixture(scope="module")
def kdpp():
    return SymmetricKDPP(random_psd_ensemble(14, seed=0), 6)


@pytest.fixture(scope="module")
def explicit():
    rng = np.random.default_rng(1)
    table = {}
    from repro.utils.subsets import all_subsets_of_size

    for subset in all_subsets_of_size(8, 3):
        table[subset] = float(rng.random()) + 0.05
    return ExplicitDistribution(8, table, cardinality=3)


@pytest.fixture(scope="module")
def partition_dpp():
    L = random_psd_ensemble(9, seed=2)
    return PartitionDPP(L, [[0, 1, 2, 3], [4, 5, 6, 7, 8]], [2, 1])


def _random_subsets(rng, n, sizes, per_size=4):
    subsets = []
    for t in sizes:
        for _ in range(per_size):
            subsets.append(tuple(sorted(rng.choice(n, size=t, replace=False).tolist())))
    return subsets


class TestBatchValueEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_counting_kdpp(self, kdpp, backend):
        rng = np.random.default_rng(3)
        subsets = _random_subsets(rng, kdpp.n, [0, 1, 2, 3, 6, 7])
        reference = np.array([kdpp.counting(s) for s in subsets])
        result = backend.execute(OracleBatch.counting(kdpp, subsets), tracker=Tracker())
        np.testing.assert_allclose(result.values, reference, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_joint_marginals_explicit(self, explicit, backend):
        rng = np.random.default_rng(4)
        subsets = _random_subsets(rng, explicit.n, [0, 1, 2, 3])
        z = explicit.counting(())
        reference = np.array([explicit.counting(s) / z for s in subsets])
        result = backend.execute(OracleBatch.joint_marginals(explicit, subsets), tracker=Tracker())
        np.testing.assert_allclose(result.values, reference, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_counting_partition(self, partition_dpp, backend):
        rng = np.random.default_rng(5)
        subsets = _random_subsets(rng, partition_dpp.n, [0, 1, 2, 3], per_size=3)
        reference = np.array([partition_dpp.counting(s) for s in subsets])
        result = backend.execute(OracleBatch.counting(partition_dpp, subsets), tracker=Tracker())
        np.testing.assert_allclose(result.values, reference, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_log_principal_minors(self, backend):
        rng = np.random.default_rng(6)
        L = random_psd_ensemble(10, seed=7)
        subsets = _random_subsets(rng, 10, [0, 1, 2, 4], per_size=3)
        result = backend.execute(OracleBatch.log_principal_minors(L, subsets), tracker=Tracker())
        for value, subset in zip(result.values, subsets):
            if subset:
                sign, logdet = np.linalg.slogdet(L[np.ix_(subset, subset)])
                expected = logdet if sign > 0 else -np.inf
            else:
                expected = 0.0
            assert value == pytest.approx(expected, rel=1e-9)

    def test_result_metadata(self, kdpp):
        backend = VectorizedBackend()
        result = backend.execute(OracleBatch.counting(kdpp, [(0,), (1,)]), tracker=Tracker())
        assert result.backend == "vectorized"
        assert result.n_queries == 2
        assert result.wall_time >= 0.0

    def test_round_accounting_is_backend_independent(self, kdpp):
        subsets = [(0, 1), (2, 3), (4, 5)]
        depths = []
        for backend in BACKENDS:
            tracker = Tracker()
            backend.execute(OracleBatch.joint_marginals(kdpp, subsets), tracker=tracker)
            depths.append(tracker.rounds)
        assert depths == [1, 1, 1]

    def test_torus_and_circle_accounting_is_backend_independent(self):
        # one oracle call and one machine per query on every backend, at a
        # root (whose normalizer is a table sum) and in a child alike
        partition = PartitionDPP(random_psd_ensemble(12, seed=1),
                                 [list(range(6)), list(range(6, 12))], [2, 2])
        nonsymmetric = NonsymmetricKDPP(random_npsd_ensemble(12, seed=1), 4)
        subsets = [(0, 1), (2, 3), (4, 5)]

        def charges(dist, backend):
            tracker = Tracker()
            backend.execute(OracleBatch.joint_marginals(dist, subsets), tracker=tracker)
            backend.execute(OracleBatch.counting(dist, subsets + [()]), tracker=tracker)
            return tracker.rounds, tracker.oracle_calls, tracker.work, tracker.peak_machines

        for dist in (partition, partition.condition((7,)),
                     nonsymmetric, nonsymmetric.condition((7,))):
            measured = [charges(dist, backend) for backend in BACKENDS]
            assert measured == [measured[0]] * len(BACKENDS), measured

        # a symmetric k-DPP (the circle route) is built fresh per backend:
        # the first batch on an instance pays its lazy factor spectrum, so a
        # shared one charged more on whichever backend ran first
        def symmetric(primed):
            dist = SymmetricKDPP(random_psd_ensemble(12, seed=1), 4)
            if primed:
                with use_tracker(Tracker()):
                    dist.marginal_vector()
            return dist

        cold = [charges(symmetric(False), backend) for backend in BACKENDS[:2]]
        assert cold == [cold[0]] * 2, cold
        # two ``threads`` workers can both compute a cold spectrum, so the
        # three backends are compared on primed instances
        primed = [charges(symmetric(True), backend) for backend in BACKENDS]
        assert primed == [primed[0]] * len(BACKENDS), primed
        assert cold[0][1] > primed[0][1]


class TestSamplerEquivalence:
    """Fixed seeds must give identical samples on every backend."""

    def test_symmetric_kdpp(self):
        L = random_psd_ensemble(16, seed=8)
        subsets = {
            name: sample_symmetric_kdpp_parallel(L, 6, seed=123, backend=backend).subset
            for name, backend in zip(BACKEND_IDS, BACKENDS)
        }
        assert len(set(subsets.values())) == 1, subsets

    def test_explicit_table(self, explicit):
        subsets = {
            name: batched_sample(explicit, seed=321, backend=backend).subset
            for name, backend in zip(BACKEND_IDS, BACKENDS)
        }
        assert len(set(subsets.values())) == 1, subsets

    def test_partition_dpp(self):
        L = random_psd_ensemble(10, seed=9)
        parts = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        subsets = {
            name: sample_partition_dpp_parallel(L, parts, [2, 2], seed=213, backend=backend).subset
            for name, backend in zip(BACKEND_IDS, BACKENDS)
        }
        assert len(set(subsets.values())) == 1, subsets

    def test_filtering(self):
        L = 0.05 * random_psd_ensemble(14, seed=10)
        subsets = {
            name: sample_bounded_dpp_filtering(L, seed=132, strategy="filter",
                                               backend=backend).subset
            for name, backend in zip(BACKEND_IDS, BACKENDS)
        }
        assert len(set(subsets.values())) == 1, subsets


class TestBackendConfiguration:
    def test_configure_and_restore(self):
        previous = current_backend()
        try:
            installed = configure_backend("serial")
            assert isinstance(installed, SerialBackend)
            assert current_backend() is installed
            assert resolve_backend(None) is installed
        finally:
            configure_backend(previous)

    def test_use_backend_scopes_override(self):
        base = current_backend()
        with use_backend("serial") as scoped:
            assert current_backend() is scoped
        assert current_backend() is base

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            configure_backend("quantum")

    def test_instance_passthrough(self):
        backend = ThreadPoolBackend(max_workers=2)
        assert resolve_backend(backend) is backend

    def test_options_forwarded(self):
        backend = resolve_backend(None)
        with use_backend("threads", max_workers=3) as scoped:
            assert scoped.max_workers == 3
        assert current_backend() is backend

    def test_sampler_accepts_backend_name(self):
        L = random_psd_ensemble(12, seed=11)
        result = sample_symmetric_kdpp_parallel(L, 4, seed=5, backend="serial")
        assert len(result.subset) == 4


class TestThreadPoolReuse:
    """The executor is created once and reused across batches (satellite fix:
    a fresh ThreadPoolExecutor per OracleBatch dominated small rounds)."""

    def test_executor_survives_across_batches(self, kdpp):
        backend = ThreadPoolBackend(max_workers=2)
        try:
            assert backend._pool is None  # lazy: no pool before the first batch
            backend.execute(OracleBatch.counting(kdpp, [(0,), (1,)]), tracker=Tracker())
            pool = backend._pool
            assert pool is not None
            backend.execute(OracleBatch.counting(kdpp, [(2,), (3,)]), tracker=Tracker())
            assert backend._pool is pool
        finally:
            backend.close()

    def test_close_then_reuse_recreates_pool(self, kdpp):
        backend = ThreadPoolBackend(max_workers=2)
        try:
            first = backend.execute(OracleBatch.counting(kdpp, [(0,)]), tracker=Tracker())
            backend.close()
            assert backend._pool is None
            again = backend.execute(OracleBatch.counting(kdpp, [(0,)]), tracker=Tracker())
            np.testing.assert_allclose(again.values, first.values)
        finally:
            backend.close()

    def test_values_unchanged_by_reuse(self, kdpp):
        subsets = [(0,), (1,), (0, 1), (2, 3, 4)]
        backend = ThreadPoolBackend(max_workers=3)
        try:
            reference = SerialBackend().execute(OracleBatch.counting(kdpp, subsets),
                                                tracker=Tracker())
            for _ in range(3):
                result = backend.execute(OracleBatch.counting(kdpp, subsets),
                                         tracker=Tracker())
                np.testing.assert_allclose(result.values, reference.values,
                                           rtol=1e-9, atol=1e-12)
        finally:
            backend.close()


class _CountingSpy(SubsetDistribution):
    """Wraps a distribution, counting how often the normalizer is queried."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.empty_queries = 0

    def counting(self, given=()):
        if not tuple(given):
            self.empty_queries += 1
        return self.inner.counting(given)

    def condition(self, include):
        return _CountingSpy(self.inner.condition(include))


class TestNormalizerCaching:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_normalizer_computed_once_per_batch(self, backend):
        spy = _CountingSpy(uniform_distribution_on_size_k(8, 3))
        subsets = [(0,), (1,), (2,), (3,), (0, 1), (1, 2)]
        backend.execute(OracleBatch.joint_marginals(spy, subsets), tracker=Tracker())
        assert spy.empty_queries == 1

    def test_batch_caches_normalizer_across_backends(self):
        spy = _CountingSpy(uniform_distribution_on_size_k(6, 2))
        batch = OracleBatch.joint_marginals(spy, [(0,), (1,)])
        assert batch.normalizer() == pytest.approx(1.0)
        assert batch.normalizer() == pytest.approx(1.0)
        assert spy.empty_queries == 1


class TestBatchScheduleEdgeCases:
    def test_zero_k(self):
        assert batch_schedule(0) == []

    def test_k_one(self):
        assert batch_schedule(1) == [1]

    def test_custom_schedule_exceeding_remaining_is_clamped(self):
        assert batch_schedule(5, batch_size=lambda k: 100) == [5]
        assert batch_schedule(7, batch_size=lambda k: 4) == [4, 3]

    def test_nonpositive_batch_size_clamped_to_one(self):
        assert batch_schedule(3, batch_size=lambda k: 0) == [1, 1, 1]
        assert batch_schedule(2, batch_size=lambda k: -5) == [1, 1]


class _NegativeOracle(SubsetDistribution):
    """Broken oracle: one element reports negative mass."""

    n = 5

    def counting(self, given=()):
        items = tuple(given)
        if len(items) == 1 and items[0] == 3:
            return -0.25
        return 1.0

    def condition(self, include):  # pragma: no cover - not reached
        return self


class TestOracleValidation:
    def test_negative_counting_raises_clear_error(self):
        with pytest.raises(CountingOracleError, match="element 3"):
            _NegativeOracle().marginal_vector()

    def test_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            _NegativeOracle().marginal_vector()

    def test_tiny_negative_noise_is_clipped(self):
        class Noisy(_NegativeOracle):
            def counting(self, given=()):
                items = tuple(given)
                if len(items) == 1 and items[0] == 3:
                    return -1e-15
                return 1.0

        marginals = Noisy().marginal_vector()
        assert marginals[3] == 0.0
        assert np.all(marginals >= 0.0)


class TestBatchProtocol:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OracleBatch(kind="divination")

    def test_matrix_kind_requires_matrix(self):
        with pytest.raises(ValueError):
            OracleBatch(kind="log_principal_minors")

    def test_distribution_kind_requires_distribution(self):
        with pytest.raises(ValueError):
            OracleBatch(kind="counting")

    def test_execute_batch_uses_configured_backend(self, kdpp):
        with use_backend("serial"):
            result = execute_batch(OracleBatch.counting(kdpp, [(0,)]), tracker=Tracker())
        assert result.backend == "serial"
