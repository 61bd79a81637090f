"""Tests for the measured execution planner (``backend="auto"``).

Covers the routing contract on scripted backends (rounds start on the
reference, another candidate runs only when guessed or measured faster,
a backend's first round in a regime decides nothing), default ``auto`` on
the paper's Theorem-10 sampler, explicit ``backend=`` choices always being
honored, fixed-seed samples identical under ``auto`` and every forced
backend (including the spectral sampler routed through the engine), and
process workers charging exactly the work the parent would.
"""

import dataclasses
import os
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro
from repro.distributions.generic import ExplicitDistribution
from repro.dpp.partition import PartitionDPP
from repro.dpp.spectral import sample_dpp_spectral, sample_kdpp_spectral
from repro.dpp.symmetric import SymmetricKDPP
from repro.engine import (
    AutoBackend,
    BackendTraits,
    ExecutionBackend,
    OracleBatch,
    OracleBatchResult,
    ProcessPoolBackend,
    RoundPlanner,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
    resolve_backend,
    shared_memory_available,
    use_backend,
)
from repro.engine.backends import _pin_worker_blas_threads, _WORKER_BLAS_ENV_VARS
from repro.engine.planner import PLANNED_KINDS, shape_bucket
from repro.core.symmetric import sample_symmetric_kdpp_parallel
from repro.core.nonsymmetric import sample_nonsymmetric_kdpp_parallel
from repro.core.partition import sample_partition_dpp_parallel
from repro.pram.tracker import Tracker, use_tracker
from repro.workloads import clustered_ensemble, random_npsd_ensemble, random_psd_ensemble

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------- #
# backend traits
# ---------------------------------------------------------------------- #
class TestTraitsAndCalibration:
    def test_backend_traits_shapes(self):
        cores = os.cpu_count() or 1
        vec = VectorizedBackend().traits()
        assert vec.dispatch_overhead_s == 0.0 and vec.parallelism == 1
        ser = SerialBackend().traits()
        assert ser.parallelism == 1 and not ser.escapes_gil
        thr = ThreadPoolBackend(max_workers=3).traits()
        assert not thr.escapes_gil
        assert thr.parallelism == min(3, cores)  # effective lanes are host-capped
        proc = ProcessPoolBackend(max_workers=2).traits()
        assert proc.escapes_gil and proc.parallelism == min(2, cores)
        assert proc.dispatch_overhead_s > thr.dispatch_overhead_s


# ---------------------------------------------------------------------- #
# planner routing decisions
# ---------------------------------------------------------------------- #
class _StubBackend(ExecutionBackend):
    """Backend whose reported wall time is scripted, not measured.

    ``walls`` is one time for every call, or a sequence whose last entry
    repeats (a slow first entry scripts a pool's start-up round).
    """

    def __init__(self, name, walls, **traits):
        self.name = name
        self._walls = list(walls) if isinstance(walls, (list, tuple)) else [walls]
        self._traits = BackendTraits(name=name, **traits)
        self.calls = 0

    def execute(self, batch, *, tracker=None):
        wall = self._walls[min(self.calls, len(self._walls) - 1)]
        self.calls += 1
        return OracleBatchResult(values=np.zeros(batch.n_queries),
                                 backend=self.name, wall_time=wall,
                                 n_queries=batch.n_queries)

    def traits(self):
        return self._traits


def _make_planner(vectorized=0.05, process=0.01, *, lanes=4):
    """A planner over scripted pooled backends (``lanes`` each): no pools
    spin up, and decisions depend only on the routing rule, not the host."""
    backends = {
        "vectorized": _StubBackend("vectorized", vectorized),
        "threads": _StubBackend("threads", 1e-6, parallelism=lanes,
                                dispatch_overhead_s=5e-4),
        "process": _StubBackend("process", process, parallelism=lanes,
                                escapes_gil=True, dispatch_overhead_s=2e-3),
    }
    return RoundPlanner(candidates=tuple(backends), backends=backends), backends


def _route(planner, batch, rounds):
    """Run ``batch`` ``rounds`` times through ``planner``; the chosen names."""
    auto = AutoBackend(planner)
    chosen = []
    for _ in range(rounds):
        auto.execute(batch)
        chosen.append(planner.last_decision.chosen)
    return chosen


@pytest.fixture(scope="module")
def small_kdpp():
    return SymmetricKDPP(random_psd_ensemble(12, seed=0), 4)


class _GilBoundPartitionDPP(PartitionDPP):
    """A distribution whose oracle is GIL-bound: ``oracle_cost_hint()`` 0.8."""

    def oracle_cost_hint(self) -> float:
        return 0.8


@pytest.fixture(scope="module")
def partition_dpp():
    L = random_psd_ensemble(30, rank=10, seed=1)
    return _GilBoundPartitionDPP(L, [list(range(15)), list(range(15, 30))], [3, 2])


def _gil_bound_batch(partition_dpp):
    """A GIL-bound counting round: ``oracle_cost_hint()`` 0.8."""
    return OracleBatch.counting(partition_dpp, [(i,) for i in range(8)])


def _lapack_batch():
    """Matrix-backed minors: no GIL-bound share at all."""
    return OracleBatch.log_principal_minors(np.eye(8), [(i,) for i in range(8)])


class TestPlannerRouting:
    def test_shape_bucket_powers_of_two(self):
        assert shape_bucket(1) == 1
        assert shape_bucket(2) == 2
        assert shape_bucket(3) == 4
        assert shape_bucket(100) == 128

    def test_small_round_stays_vectorized(self, small_kdpp):
        # a regime's first planned rounds run on the reference until it has
        # a measurement that is not a set-up round...
        planner, backends = _make_planner(vectorized=1e-3)
        batch = OracleBatch.counting(small_kdpp, [(0,), (1,), (2, 3)])
        assert _route(planner, batch, 2) == ["vectorized", "vectorized"]
        assert planner.last_decision.reason == "unmeasured"
        assert planner.last_decision.estimates == {}
        # ...and a measured round below break-even stays there
        assert _route(planner, batch, 3) == ["vectorized"] * 3
        decision = planner.last_decision
        assert decision.reason == ""
        assert set(decision.estimates) == {"vectorized", "threads", "process"}
        assert decision.estimates["vectorized"] == pytest.approx(1e-3)
        assert backends["threads"].calls == backends["process"].calls == 0

    def test_large_python_bound_round_goes_to_process(self, partition_dpp):
        planner, _ = _make_planner(vectorized=0.05)
        chosen = _route(planner, _gil_bound_batch(partition_dpp), 3)
        assert chosen == ["vectorized", "vectorized", "process"]
        # T · (1 − f + f / lanes) + overhead at f = 0.8 on 4 lanes
        estimates = planner.last_decision.estimates
        assert estimates["process"] == pytest.approx(0.05 * 0.4 + 2e-3)
        assert estimates["threads"] > estimates["vectorized"]  # never escapes the GIL

    @pytest.mark.parametrize("process, kept", [(0.01, "process"), (0.08, "vectorized")],
                             ids=["process-faster", "reference-faster"])
    def test_measured_faster_backend_is_kept(self, partition_dpp, process, kept):
        planner, backends = _make_planner(vectorized=0.05, process=process)
        chosen = _route(planner, _gil_bound_batch(partition_dpp), 10)
        # two reference rounds (set-up, then measured), two process rounds
        # (set-up, then measured), then whichever measured faster, for good
        assert chosen[:4] == ["vectorized", "vectorized", "process", "process"]
        assert chosen[4:] == [kept] * 6
        assert backends["process"].calls == (8 if kept == "process" else 2)

    def test_large_lapack_round_prefers_in_process(self):
        # a whole second per round, but all of it LAPACK: no lanes to gain,
        # so every guess is the reference plus dispatch overhead
        planner, backends = _make_planner(vectorized=1.0, process=1e-6)
        assert _route(planner, _lapack_batch(), 8) == ["vectorized"] * 8
        assert backends["process"].calls == 0

    def test_single_lane_process_is_never_tried(self, partition_dpp):
        planner, backends = _make_planner(vectorized=1.0, process=1e-6, lanes=1)
        assert _route(planner, _gil_bound_batch(partition_dpp), 8) == ["vectorized"] * 8
        assert backends["process"].calls == 0

    def test_pool_startup_round_does_not_decide_regime(self, partition_dpp):
        planner, _ = _make_planner(vectorized=0.05, process=(5.0, 0.01))
        chosen = _route(planner, _gil_bound_batch(partition_dpp), 8)
        assert chosen[2:] == ["process"] * 6

    def test_regimes_keep_separate_measurements(self, partition_dpp):
        planner, _ = _make_planner(vectorized=0.05)
        _route(planner, _gil_bound_batch(partition_dpp), 4)
        wide = OracleBatch.counting(partition_dpp, [(i,) for i in range(30)])
        assert _route(planner, wide, 1) == ["vectorized"]
        assert planner.last_decision.reason == "unmeasured"

    def test_fixed_route_kinds_skip_estimation(self, small_kdpp):
        planner, _ = _make_planner()
        marginal = OracleBatch.marginal_vector(small_kdpp)
        assert planner.choose(marginal).name == "vectorized"
        assert planner.last_decision.reason == "fixed-route"
        projection = OracleBatch.projection_step(np.eye(6)[:, :3])
        assert planner.choose(projection).name == "vectorized"
        assert planner.last_decision.reason == "fixed-route"
        assert projection.kind not in PLANNED_KINDS

    def test_empty_batch_short_circuits(self, small_kdpp):
        planner, _ = _make_planner()
        batch = OracleBatch.counting(small_kdpp, [])
        assert planner.choose(batch).name == "vectorized"
        assert planner.last_decision.reason == "empty"

    def test_reference_is_vectorized_among_in_process_candidates(self, small_kdpp):
        auto = AutoBackend(candidates=("serial", "vectorized"))
        assert auto.planner.reference == "vectorized"
        batch = lambda: OracleBatch.counting(small_kdpp, [(0,), (1,), (2, 3)])  # noqa: E731
        marginal = OracleBatch.marginal_vector(small_kdpp)
        for _ in range(4):
            assert auto.execute(batch(), tracker=Tracker()).backend == "vectorized"
            assert auto.execute(marginal, tracker=Tracker()).backend == "vectorized"
        # serial is guessed at exactly the reference's time: ties keep it
        estimates = auto.planner.decisions[-2].estimates
        assert estimates["serial"] == estimates["vectorized"]

    def test_generic_distribution_hint_is_python_bound(self):
        table = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 0.5}
        dist = ExplicitDistribution(3, table, cardinality=2)
        # explicit tables answer a batch in one mask matmul
        assert dist.oracle_cost_hint() < 1.0
        from repro.distributions.base import SubsetDistribution

        assert SubsetDistribution.oracle_cost_hint(dist) == 1.0


class TestPlannerConcurrency:
    def test_concurrent_rounds_keep_lock_discipline(self, partition_dpp):
        """Eight threads (more than this host's cores) route one regime
        under seeded chaos: the runtime harness sees every measurement and
        decision touched under the planner's lock, and the regime still
        settles on the backend that measured faster."""
        from repro.analysis.runtime import ChaosScheduler, guard_instance

        collector = []
        planner, _ = _make_planner(vectorized=0.05, process=0.01)
        batch = _gil_bound_batch(partition_dpp)
        with ChaosScheduler(7) as chaos:
            guard_instance(planner, collector=collector, chaos=chaos)
            auto = AutoBackend(planner)

            def route():
                for _ in range(25):
                    chaos.maybe_switch()
                    auto.execute(batch)

            threads = [threading.Thread(target=route) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not collector, [v.render() for v in collector]
        assert _route(planner, batch, 1) == ["process"]
        assert planner.last_decision.estimates == pytest.approx(
            {"vectorized": 0.05, "threads": 0.05 + 5e-4, "process": 0.01})


class TestDefaultAutoOnTheorem10:
    def test_default_auto_keeps_theorem10_in_process(self):
        """Default candidates keep the paper's sampler on ``vectorized``.

        A Theorem-10 round is LAPACK-bound (``oracle_cost_hint()`` 0.1) and
        takes milliseconds, far below what a process pool could win back,
        so no planned round leaves the reference and no pool starts.
        """
        backends = {"vectorized": VectorizedBackend(),
                    "threads": ThreadPoolBackend(),
                    "process": ProcessPoolBackend()}
        planner = RoundPlanner(backends=backends)
        auto = AutoBackend(planner)
        L = random_psd_ensemble(200, rank=60, seed=0)
        decisions = []
        try:
            with repro.serve(L, registry=repro.KernelRegistry()) as session:
                session.warm()
                for seed in range(4):
                    session.sample(k=10, seed=seed, method="parallel", backend=auto)
                    decisions += list(planner.decisions)
                    planner.decisions.clear()
            started = backends["process"]._pool is not None
        finally:
            backends["threads"].close()
            backends["process"].close()
        planned = [d.chosen for d in decisions if d.kind in PLANNED_KINDS]
        assert planned and set(planned) == {"vectorized"}, planned
        assert not started


class _AnsweringStub(_StubBackend):
    """A scripted stub that answers with the real ``vectorized`` values."""

    def execute(self, batch, *, tracker=None):
        scripted = super().execute(batch, tracker=tracker)
        result = VectorizedBackend().execute(batch, tracker=tracker)
        return dataclasses.replace(result, backend=self.name, wall_time=scripted.wall_time)


class TestDefaultAutoOnTheorem9:
    def test_default_auto_keeps_theorem9_in_process(self):
        """Theorem-9 and Theorem-8 rounds stay on ``vectorized`` on a 2-lane pool.

        Both read the torus oracle, stacked LAPACK (``oracle_cost_hint()``
        0.1), so a round measured at 20 ms, longer than any Theorem-9 round
        at parts of 10 on a 2-vCPU host, guesses ``process`` at
        0.95 · 20 + 2 ms: three samples of each route no round there.  The
        stubs answer with real values and pin the measured time, so host load
        cannot move a decision.
        """
        L, parts = clustered_ensemble([10, 10, 10], within=0.6, across=0.05, scale=1.5, seed=0)
        L_ns = random_npsd_ensemble(30, seed=0)
        draws = {
            "theorem 9": lambda seed, auto: sample_partition_dpp_parallel(
                L, parts, [2, 2, 2], seed=seed, backend=auto),
            "theorem 8": lambda seed, auto: sample_nonsymmetric_kdpp_parallel(
                L_ns, 6, seed=seed, backend=auto),
        }
        for name, draw in draws.items():
            backends = {"vectorized": _AnsweringStub("vectorized", 0.02),
                        "process": _AnsweringStub("process", 1e-6, parallelism=2,
                                                  escapes_gil=True, dispatch_overhead_s=2e-3)}
            auto = AutoBackend(RoundPlanner(backends=backends))
            for seed in range(3):
                draw(seed, auto)
            assert backends["vectorized"].calls > 0, name
            assert backends["process"].calls == 0, name


# ---------------------------------------------------------------------- #
# the auto backend: defaults, overrides, seeded identity
# ---------------------------------------------------------------------- #
class TestAutoBackend:
    def test_auto_is_registered_and_memoized(self):
        auto = resolve_backend("auto")
        assert isinstance(auto, AutoBackend)
        assert resolve_backend("auto") is auto

    def test_auto_rejects_conflicting_construction(self):
        with pytest.raises(ValueError, match="not both"):
            AutoBackend(RoundPlanner(), candidates=("vectorized",))

    def test_result_reports_inner_backend(self, small_kdpp):
        auto = AutoBackend(candidates=("vectorized", "serial"))
        result = auto.execute(OracleBatch.counting(small_kdpp, [(0,), (1,)]),
                              tracker=Tracker())
        assert result.backend == "vectorized"

    def test_explicit_backend_bypasses_planner(self, small_kdpp):
        auto = AutoBackend(_make_planner()[0])
        with use_backend(auto):
            before = len(auto.planner.decisions)
            result = resolve_backend("serial").execute(
                OracleBatch.counting(small_kdpp, [(0,), (1,)]), tracker=Tracker())
            assert result.backend == "serial"
            assert len(auto.planner.decisions) == before

    def test_routed_batch_executes_on_chosen_backend(self, partition_dpp):
        planner, backends = _make_planner(vectorized=0.05)
        auto = AutoBackend(planner)
        batch = _gil_bound_batch(partition_dpp)
        results = [auto.execute(batch, tracker=Tracker()) for _ in range(3)]
        assert [r.backend for r in results] == ["vectorized", "vectorized", "process"]
        assert backends["vectorized"].calls == 2 and backends["process"].calls == 1

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads"])
    def test_auto_identical_to_forced_symmetric(self, forced):
        L = random_psd_ensemble(16, rank=8, seed=3)
        reference = sample_symmetric_kdpp_parallel(L, k=5, seed=11, backend=forced)
        with use_backend("auto"):
            auto = sample_symmetric_kdpp_parallel(L, k=5, seed=11)
        assert auto.subset == reference.subset

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads"])
    def test_auto_identical_to_forced_partition(self, forced):
        L = random_psd_ensemble(10, seed=4)
        parts = [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
        reference = sample_partition_dpp_parallel(L, parts, [2, 2], seed=13,
                                                  backend=forced)
        with use_backend("auto"):
            auto = sample_partition_dpp_parallel(L, parts, [2, 2], seed=13)
        assert auto.subset == reference.subset

    @pytest.mark.parametrize("forced", ["serial", "vectorized", "threads", "auto"])
    def test_spectral_identity_across_backends(self, forced):
        L = random_psd_ensemble(18, rank=9, seed=5)
        reference = sample_kdpp_spectral(L, 5, seed=21, backend="vectorized")
        assert sample_kdpp_spectral(L, 5, seed=21, backend=forced) == reference
        dpp_reference = sample_dpp_spectral(L, seed=22, backend="vectorized")
        assert sample_dpp_spectral(L, seed=22, backend=forced) == dpp_reference


# ---------------------------------------------------------------------- #
# spectral path through the engine
# ---------------------------------------------------------------------- #
class TestSpectralEngineRounds:
    def test_projection_step_round_trip(self):
        rng = np.random.default_rng(0)
        basis, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        backend = resolve_backend("vectorized")
        result = backend.execute(OracleBatch.projection_step(basis), tracker=Tracker())
        np.testing.assert_array_equal(result.values, np.sum(basis * basis, axis=1))
        spans, leverages = result.artifacts["state"]
        assert spans.shape == (1, 0, 4)
        np.testing.assert_array_equal(leverages[0], result.values)
        step = backend.execute(
            OracleBatch.projection_step(basis, eliminate=(2,), state=(spans, leverages)),
            tracker=Tracker())
        spans, leverages = step.artifacts["state"]
        np.testing.assert_allclose(spans[0], basis[2][None] / np.linalg.norm(basis[2]),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(leverages[0], step.values)
        assert step.values[2] == 0.0

    def test_projection_step_identical_across_backends(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        reference = None
        for backend in (SerialBackend(), VectorizedBackend(), ThreadPoolBackend(max_workers=2)):
            first = backend.execute(OracleBatch.projection_step(basis), tracker=Tracker())
            result = backend.execute(
                OracleBatch.projection_step(basis, eliminate=(3,),
                                            state=first.artifacts["state"]),
                tracker=Tracker())
            if reference is None:
                reference = result
            else:
                np.testing.assert_array_equal(result.values, reference.values)
                for part, expected in zip(result.artifacts["state"],
                                          reference.artifacts["state"]):
                    np.testing.assert_array_equal(part, expected)

    def test_stacked_matches_single(self):
        """The fusion contract: G-stacked execution equals G=1 slices bitwise."""
        from repro.linalg.batch import hkpv_projection_step

        rng = np.random.default_rng(2)
        bases = np.stack([np.linalg.qr(rng.standard_normal((9, 3)))[0] for _ in range(4)])
        _, state = hkpv_projection_step(bases)
        for items in ([0, 4, 7, 2], [5, 1, 3, 8]):
            stacked_l, stacked_state = hkpv_projection_step(bases, items, state)
            for g in range(4):
                single_l, single_state = hkpv_projection_step(
                    bases[g][None], [items[g]], (state[0][g:g + 1], state[1][g:g + 1]))
                np.testing.assert_array_equal(stacked_l[g], single_l[0])
                np.testing.assert_array_equal(stacked_state[0][g], single_state[0][0])
            state = stacked_state

    def test_spectral_depth_one_round_per_step(self):
        L = random_psd_ensemble(12, seed=6)
        tracker = Tracker()
        with use_tracker(tracker):
            sample_kdpp_spectral(L, 4, seed=7)
        # eigendecomposition round + one engine round per phase-2 step
        assert tracker.rounds == 5

    def test_spectral_sample_statistics_hold(self):
        # the engine rewrite must not perturb correctness of the sampler
        from repro.dpp.exact import exact_kdpp_distribution

        L = random_psd_ensemble(6, seed=8)
        exact = exact_kdpp_distribution(L, 2)
        rng = np.random.default_rng(9)
        counts = {}
        num_samples = 2000
        for _ in range(num_samples):
            s = sample_kdpp_spectral(L, 2, rng)
            counts[s] = counts.get(s, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(s, 0) / num_samples - exact.probability_vector([s])[0])
            for s in exact.support)
        assert tv < 0.08


# ---------------------------------------------------------------------- #
# process backend: work parity and BLAS pinning
# ---------------------------------------------------------------------- #
class TestProcessBackendSatellites:
    def test_pin_worker_blas_threads_sets_defaults(self, monkeypatch):
        for var in _WORKER_BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "7")  # explicit settings win
        _pin_worker_blas_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["MKL_NUM_THREADS"] == "7"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status")
                        or (os.cpu_count() or 1) < 2,
                        reason="needs Linux /proc and at least 2 CPUs")
    def test_pool_workers_run_one_blas_thread(self):
        # a worker's thread count after a LAPACK call, with no BLAS variable
        # set when the pool starts: unpinned, OpenBLAS runs one per CPU
        with mock.patch.dict(os.environ):
            for var in _WORKER_BLAS_ENV_VARS:
                os.environ.pop(var, None)
            backend = ProcessPoolBackend(max_workers=1)
            try:
                pool = backend._ensure_pool()
                matrix = np.eye(64) + np.ones((64, 64))
                pool.submit(np.linalg.eigh, matrix).result(timeout=120)
                status = pool.submit(Path.read_text,
                                     Path("/proc/self/status")).result(timeout=60)
            finally:
                backend.close()
        threads = next(int(line.split()[1]) for line in status.splitlines()
                       if line.startswith("Threads:"))
        assert threads == 1

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="multiprocessing.shared_memory unavailable")
    def test_custom_cost_model_ships_to_workers(self):
        L = random_psd_ensemble(10, seed=2)
        dist = PartitionDPP(L, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], [2, 1])
        subsets = [(0,), (1,), (5,), (0, 5), (2, 6)]
        reference = Tracker()
        resolve_backend("vectorized").execute(OracleBatch.counting(dist, subsets),
                                              tracker=reference)
        shipped = Tracker()
        backend = resolve_backend("process")
        backend.execute(OracleBatch.counting(dist, subsets), tracker=shipped)
        # workers price every determinant as the parent does, so the work
        # is the same whether the batch ran in workers or fell back
        assert reference.work > 0
        assert shipped.work == pytest.approx(reference.work)
