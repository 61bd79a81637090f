"""Streaming kernels end-to-end: incremental updates replace recompute.

The contract under test is byte-identity: after any chain of
``update()`` / ``append_items()`` / ``delete_items()`` calls, fixed-seed
draws from the live session equal draws from a *cold* registration of the
mutated matrix — on every kernel family, sampling method, execution
backend, through the fused scheduler, and across cluster replicas.  An
update that leaves the PSD / nPSD cone is refused and changes nothing.  The
cache must report honest patched-vs-recomputed decisions, the registry's
depth rule must flip long chains to a lazy rebuild, and the cluster must
ship O(n·k) deltas over a verified fingerprint chain.
"""

import contextlib
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest

import repro
from repro import obs
from repro.cluster import LocalCluster, serve_cluster
from repro.linalg.batch import symmetrized_eigh
from repro.linalg.updates import KernelUpdate
from repro.service.registry import KernelRegistry
from repro.workloads import random_npsd_ensemble, random_psd_ensemble

SEEDS = [0, 3, 11]
K = 4


@pytest.fixture(scope="module")
def psd():
    return random_psd_ensemble(14, seed=5)


@pytest.fixture(scope="module")
def npsd():
    return random_npsd_ensemble(10, symmetric_scale=1.0, skew_scale=0.5, seed=7)


@pytest.fixture(scope="module")
def factor():
    rng = np.random.default_rng(9)
    return rng.standard_normal((24, 4)) / 2.0


def _cold(matrix, **kwargs):
    """A fresh single-node session on an independent registry/cache."""
    return repro.serve(matrix, registry=KernelRegistry(), **kwargs)


@contextlib.contextmanager
def _counting_decompositions():
    """Record the shape of every ``symmetrized_eigh`` a served draw runs."""
    calls = []

    def counting(ensemble):
        calls.append(np.shape(ensemble))
        return symmetrized_eigh(ensemble)

    with mock.patch("repro.service.cache.symmetrized_eigh", counting), \
            mock.patch("repro.dpp.symmetric.symmetrized_eigh", counting), \
            mock.patch("repro.dpp.spectral.symmetrized_eigh", counting):
        yield calls


def _vectors(n, seed=100):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) / np.sqrt(n), rng.standard_normal(n) / np.sqrt(n)


# ---------------------------------------------------------------------- #
# dense kernels: update == cold re-registration, every method/backend
# ---------------------------------------------------------------------- #
class TestDenseUpdateIdentity:
    @pytest.mark.parametrize("method", ["spectral", "parallel"])
    @pytest.mark.parametrize("backend", ["serial", "vectorized", "threads"])
    def test_symmetric_update_matches_cold(self, psd, method, backend):
        session = _cold(psd)
        session.sample(k=K, seed=0, method=method)  # warm the artifacts
        u, _ = _vectors(psd.shape[0])
        entry = session.update(u, weight=0.4)
        expected = psd + 0.4 * np.outer(u, u)
        np.testing.assert_allclose(np.asarray(entry.matrix), expected)
        cold = _cold(np.asarray(entry.matrix))
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed, method=method,
                                  backend=backend).subset == \
                cold.sample(k=K, seed=seed, method=method,
                            backend=backend).subset

    def test_symmetric_uv_update_symmetrizes(self, psd):
        session = _cold(psd)
        u, v = _vectors(psd.shape[0], seed=101)
        entry = session.update(u, v, weight=0.3)
        expected = psd + 0.3 * 0.5 * (np.outer(u, v) + np.outer(v, u))
        np.testing.assert_allclose(np.asarray(entry.matrix), expected)
        cold = _cold(np.asarray(entry.matrix))
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed).subset == \
                cold.sample(k=K, seed=seed).subset

    def test_nonsymmetric_update_matches_cold(self, npsd):
        session = _cold(npsd, kind="nonsymmetric")
        session.sample(k=3, seed=0)
        u, v = _vectors(npsd.shape[0], seed=102)
        entry = session.update(u, v, weight=0.2)
        np.testing.assert_allclose(np.asarray(entry.matrix),
                                   npsd + 0.2 * np.outer(u, v))
        cold = _cold(np.asarray(entry.matrix), kind="nonsymmetric")
        for seed in SEEDS:
            assert session.sample(k=3, seed=seed).subset == \
                cold.sample(k=3, seed=seed).subset

    def test_update_chain_stays_identical(self, psd):
        """Several stacked patches must not drift off the cold path."""
        session = _cold(psd)
        session.sample(k=K, seed=0)
        matrix = psd.copy()
        for step in range(3):
            u, _ = _vectors(psd.shape[0], seed=200 + step)
            weight = 0.1 * (step + 1)
            entry = session.update(u, weight=weight)
            matrix = matrix + weight * np.outer(u, u)
        np.testing.assert_allclose(np.asarray(entry.matrix), matrix)
        cold = _cold(np.asarray(entry.matrix))
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed).subset == \
                cold.sample(k=K, seed=seed).subset

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric"])
    def test_update_leaving_the_cone_is_refused(self, npsd, kind, warm):
        """Refused whether or not the cache holds an ``eigh`` to patch."""
        if kind == "symmetric":
            matrix = random_psd_ensemble(12, seed=1)
            e0 = np.eye(12)[0]
            args, weight = (e0,), -2.0 * matrix[0, 0]
        else:
            matrix = npsd
            e0 = np.eye(npsd.shape[0])[0]
            args, weight = (e0, e0), -3.0 * abs(matrix[0, 0]) - 1.0
        expected = _cold(matrix, kind=kind).sample(k=3, seed=1).subset
        session = _cold(matrix, kind=kind)
        if warm:
            session.warm()
        with pytest.raises(ValueError):
            session.update(*args, weight=weight)
        assert session.entry.epoch == 0
        assert session.sample(k=3, seed=1).subset == expected

    def test_nan_weight_is_refused(self, psd):
        session = _cold(psd)
        u, _ = _vectors(psd.shape[0])
        with pytest.raises(ValueError, match="non-finite"):
            session.update(u, weight=float("nan"))
        assert session.entry.epoch == 0

    def test_positive_update_skips_the_cone_check(self, psd, monkeypatch):
        from test_factor_space import _recording

        session = _cold(psd)
        session.sample(k=K, seed=0)
        u, _ = _vectors(psd.shape[0])
        sizes = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", _recording(np.linalg.eigvalsh, sizes))
            session.update(u, weight=0.4)
        assert sizes == []


# ---------------------------------------------------------------------- #
# low-rank kernels: append/delete are exact factor edits
# ---------------------------------------------------------------------- #
class TestLowRankStreaming:
    def test_append_and_delete_are_bitwise_exact(self, factor):
        session = _cold(factor, kind="lowrank")
        session.sample(k=K, seed=0)
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((2, factor.shape[1])) / 2.0
        entry = session.append_items(rows)
        grown = np.concatenate([factor, rows], axis=0)
        assert np.asarray(entry.matrix).tobytes() == grown.tobytes()
        entry = session.delete_items([0, 5])
        shrunk = np.delete(grown, [0, 5], axis=0)
        assert np.asarray(entry.matrix).tobytes() == shrunk.tobytes()
        cold = _cold(shrunk, kind="lowrank")
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed).subset == \
                cold.sample(k=K, seed=seed).subset

    def test_process_backend_after_update(self, factor):
        session = _cold(factor, kind="lowrank")
        rng = np.random.default_rng(17)
        entry = session.append_items(rng.standard_normal(factor.shape[1]) / 2.0)
        cold = _cold(np.asarray(entry.matrix), kind="lowrank")
        assert session.sample(k=K, seed=1, backend="process").subset == \
            cold.sample(k=K, seed=1, backend="process").subset


# ---------------------------------------------------------------------- #
# epochs: stamped on results and fused tickets
# ---------------------------------------------------------------------- #
class TestEpochs:
    def test_epoch_stamp_only_after_first_update(self, psd):
        session = _cold(psd)
        assert "kernel_epoch" not in session.sample(k=K, seed=0).report.extra
        u, _ = _vectors(psd.shape[0], seed=300)
        session.update(u, weight=0.1)
        assert session.epoch == 1
        assert session.sample(k=K, seed=0).report.extra["kernel_epoch"] == 1.0

    def test_fused_tickets_carry_their_epoch(self, psd):
        session = _cold(psd)
        scheduler = session.scheduler(seed=0)
        before = scheduler.submit(K, seed=1)
        u, _ = _vectors(psd.shape[0], seed=301)
        session.update(u, weight=0.2)
        after = scheduler.submit(K, seed=2)
        assert before.epoch == 0 and after.epoch == 1
        results = scheduler.drain()
        # fused draws run against the *current* epoch, identical to a cold
        # session on the mutated kernel
        cold = _cold(np.asarray(session.entry.matrix))
        assert [r.subset for r in results] == \
            [cold.sample(k=K, seed=seed, method="parallel").subset
             for seed in (1, 2)]

    def test_named_session_update_reaches_a_later_serve(self, psd):
        registry = KernelRegistry()
        writer = repro.serve(psd, name="x", registry=registry)
        u, _ = _vectors(psd.shape[0], seed=302)
        entry = writer.update(u, weight=0.25)
        reader = repro.serve("x", registry=registry)
        assert reader.epoch == entry.epoch == 1
        cold = _cold(np.asarray(entry.matrix))
        for seed in SEEDS:
            assert reader.sample(k=K, seed=seed).subset == \
                cold.sample(k=K, seed=seed).subset

    def test_named_lowrank_stream_keeps_one_live_epoch(self):
        rng = np.random.default_rng(12)
        registry = KernelRegistry()
        session = repro.serve(repro.LowRankKernel(rng.standard_normal((200, 8))),
                              name="x", registry=registry).warm()
        for step in range(64):
            if step % 2 == 0:
                session.append_items(rng.standard_normal((4, 8)))
            else:
                session.delete_items([0, 1, 2, 3])
        assert session.epoch == registry.get("x").epoch == 64
        assert len(registry.cache) == 1

    @pytest.mark.parametrize("method", ["spectral", "parallel"])
    def test_session_on_a_superseded_epoch_draws_it_cold(self, psd, method):
        registry = KernelRegistry()
        registry.register("pair", psd)
        writer, reader = registry.session("pair").warm(), registry.session("pair")
        u, _ = _vectors(psd.shape[0], seed=304)
        entry = writer.update(u, weight=0.1)
        # the cache keeps the live epoch only...
        assert entry.fingerprint in registry.cache
        assert reader.entry.fingerprint not in registry.cache
        # ...and the session still on epoch 0 recomputes it from its snapshot
        assert reader.epoch == 0
        cold = _cold(psd)
        for seed in SEEDS:
            assert reader.sample(k=K, seed=seed, method=method).subset == \
                cold.sample(k=K, seed=seed, method=method).subset

    @pytest.mark.parametrize("method", ["spectral", "parallel"])
    def test_superseded_epoch_stays_out_of_the_cache(self, psd, method):
        registry = KernelRegistry()
        registry.register("pair", psd)
        writer, reader = registry.session("pair").warm(), registry.session("pair")
        u, _ = _vectors(psd.shape[0], seed=306)
        writer.update(u, weight=0.1)
        with _counting_decompositions() as decompositions:
            first = reader.sample(k=K, seed=0, method=method)
            # the stale draw keeps its epoch in the session, not the cache
            assert len(registry.cache) == 1
            assert decompositions
            decompositions.clear()
            second = reader.sample(k=K, seed=0, method=method)
        assert decompositions == []
        assert first.subset == second.subset
        assert len(registry.cache) == 1

    def test_superseded_epoch_another_name_serves_reads_the_cache(self, psd):
        registry = KernelRegistry()
        registry.register("a", psd)
        registry.register("b", psd)
        writer, reader = registry.session("a"), registry.session("a")
        registry.session("b").warm()
        u, _ = _vectors(psd.shape[0], seed=308)
        writer.update(u, weight=0.1)
        with _counting_decompositions() as decompositions:
            reader.sample(k=K, seed=0, method="parallel")
        assert decompositions == []
        assert len(registry.cache) == 2

    def test_concurrent_stale_draws_share_one_kept_factorization(self, psd):
        registry = KernelRegistry()
        registry.register("pair", psd)
        writer, reader = registry.session("pair"), registry.session("pair")
        u, _ = _vectors(psd.shape[0], seed=307)
        writer.update(u, weight=0.1)
        cold = _cold(psd)
        expected = [cold.sample(k=K, seed=seed, method="parallel").subset
                    for seed in range(8)]
        results, errors = {}, []

        def draw(seed):
            try:
                results[seed] = reader.sample(k=K, seed=seed, method="parallel").subset
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=draw, args=(seed,))
                   for seed in range(2 * (os.cpu_count() or 1) + 4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _counting_decompositions() as decompositions:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # one kept factorization: its eigh and Gram eigh ran once between them
        assert len(decompositions) == 2
        assert [results[seed] for seed in range(8)] == expected
        assert len(registry.cache) == 1

    def test_update_serves_a_new_distribution_while_the_old_epoch_draws_on(self, psd):
        registry = KernelRegistry()
        registry.register("e", psd)
        writer, reader = registry.session("e"), registry.session("e")

        def draws(session):
            results = [session.sample(k=K, seed=seed, method="parallel") for seed in SEEDS]
            return [(r.subset, r.report.rounds, r.report.oracle_calls, r.report.work)
                    for r in results]

        before, old = draws(reader), reader.distribution(K)
        u, _ = _vectors(psd.shape[0], seed=305)
        writer.update(u, weight=0.1)
        # the new epoch's one distribution, shared by every session on it...
        new = writer.distribution(K)
        assert new is not old and new is registry.session("e").distribution(K)
        # ...while the session still on epoch 0 draws that epoch bitwise, with
        # the charges of its earlier draws
        assert reader.epoch == 0
        assert draws(reader) == before

    def test_adopt_entry_refuses_rollback(self, psd):
        registry = KernelRegistry()
        registry.register("roll", psd)
        session = registry.session("roll")
        old = session.entry
        u, _ = _vectors(psd.shape[0], seed=303)
        session.update(u, weight=0.1)
        assert session.adopt_entry(old) is False
        assert session.epoch == 1


# ---------------------------------------------------------------------- #
# cache accounting and the update-depth rule
# ---------------------------------------------------------------------- #
class TestCacheDecisions:
    def test_warm_update_is_patched_cold_is_recomputed(self, psd):
        registry = KernelRegistry()
        registry.register("acct", psd)
        session = registry.session("acct")
        u, _ = _vectors(psd.shape[0], seed=400)
        # no artifacts warmed yet: nothing to patch, honest "recomputed"
        entry = registry.apply_update("acct", KernelUpdate.rank_one(u, weight=0.1))
        assert entry.update_log[-1].decision == "recomputed"
        session.adopt_entry(entry)
        session.sample(k=K, seed=0)  # warm this epoch's artifacts
        entry = registry.apply_update("acct", KernelUpdate.rank_one(u, weight=0.1))
        assert entry.update_log[-1].decision == "patched"
        info = registry.cache.cache_info()
        assert info["update_patched"] >= 1
        assert info["update_recomputed"] >= 1
        artifacts = info["artifacts"]
        assert any(stats["patched"] > 0 for stats in artifacts.values())

    def test_update_carrying_nothing_over_is_recomputed(self, npsd):
        registry = KernelRegistry()
        registry.register("ns", npsd, kind="nonsymmetric")
        session = registry.session("ns")
        session.sample(k=3, seed=0)  # caches torus tables, which no update patches
        entry = session.update(np.eye(npsd.shape[0])[0], weight=0.5)
        assert entry.update_log[-1].decision == "recomputed"
        info = registry.cache.cache_info()
        assert (info["update_patched"], info["update_recomputed"]) == (0, 1)

    def test_parallel_only_symmetric_update_is_patched(self, psd):
        registry = KernelRegistry()
        registry.register("par", psd)
        session = registry.session("par")
        session.sample(k=K, seed=0, method="parallel")
        u, _ = _vectors(psd.shape[0], seed=401)
        entry = session.update(u, weight=0.1)
        assert entry.update_log[-1].decision == "patched"
        successor = registry.cache.factorization(entry)
        assert {"eigh", "factor", "factor_gram"} <= set(successor.materialized)

    @pytest.mark.parametrize("case, flip", [
        ("sym-n4", 4),      # dense: the depth limit is min(n, 64)
        ("sym-n100", 64),
        ("lowrank", 64),    # factor edits run to the limit whatever n is
    ], ids=["sym-n4", "sym-n100", "lowrank"])
    def test_break_even_depth_flips_to_refactorization(self, case, flip):
        rng = np.random.default_rng(500)
        if case == "lowrank":
            matrix, kind = rng.standard_normal((30, 3)) / 2.0, "lowrank"
        elif case == "sym-n4":
            matrix, kind = random_psd_ensemble(4, seed=1), "symmetric"
        else:
            matrix, kind = random_psd_ensemble(100, rank=10, seed=1), "symmetric"
        registry = KernelRegistry()
        registry.register("stream", matrix, kind=kind)
        session = registry.session("stream")
        decisions = []
        for step in range(flip + 1):
            session.sample(k=2, seed=0)  # keep each epoch warm
            if kind == "lowrank" and step % 2 == 0:
                entry = session.append_items(rng.standard_normal((1, 3)) / 2.0)
            elif kind == "lowrank":
                entry = session.delete_items([0])
            else:
                u, _ = _vectors(matrix.shape[0], seed=500 + step)
                entry = session.update(u, weight=0.05)
            decisions.append(entry.update_log[-1].decision)
        assert decisions[:flip - 1] == ["patched"] * (flip - 1)
        # the flip, and the update after it: the depth never resets
        assert decisions[flip - 1:] == ["recomputed"] * 2

    def test_partition_kernels_refuse_updates(self):
        from repro.workloads import clustered_ensemble

        L, parts = clustered_ensemble([3, 3], within=0.6, across=0.05, seed=2)
        registry = KernelRegistry()
        registry.register("parts", L, kind="partition", parts=parts, counts=[1, 1])
        with pytest.raises(ValueError, match="partition"):
            registry.apply_update("parts", KernelUpdate.rank_one(np.ones(6)))

    def test_stale_expect_fingerprint_is_refused(self, psd):
        registry = KernelRegistry()
        registry.register("guard", psd)
        u, _ = _vectors(psd.shape[0], seed=502)
        update = KernelUpdate.rank_one(u, weight=0.1)
        with pytest.raises(ValueError, match="stale or rebased"):
            registry.apply_update("guard", update, expect_fingerprint="0" * 64)


# ---------------------------------------------------------------------- #
# cluster: verified fingerprint chain, stable routing, delta shipping
# ---------------------------------------------------------------------- #
class TestClusterStreaming:
    @pytest.fixture
    def cluster(self):
        with LocalCluster(nodes=3, replication=2) as cluster:
            yield cluster

    def test_lowrank_stream_matches_single_node(self, cluster, factor):
        session = serve_cluster(factor, kind="lowrank", cluster=cluster)
        reference = _cold(factor, kind="lowrank")
        rng = np.random.default_rng(21)
        row = rng.standard_normal(factor.shape[1]) / 2.0
        session.append_items(row)
        reference.append_items(row)
        session.delete_items([2])
        reference.delete_items([2])
        assert session.epoch == 2
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed).subset == \
                reference.sample(k=K, seed=seed).subset

    def test_dense_update_matches_cold_through_cluster(self, cluster, psd):
        session = serve_cluster(psd, cluster=cluster, warm=True)
        u, _ = _vectors(psd.shape[0], seed=600)
        session.update(u, weight=0.3)
        cold = _cold(psd + 0.3 * np.outer(u, u))
        for seed in SEEDS:
            assert session.sample(k=K, seed=seed).subset == \
                cold.sample(k=K, seed=seed).subset

    def test_chain_fingerprint_and_routing_are_stable(self, cluster, factor):
        client = cluster.client()
        registered = client.register(factor, name="chain-a", kind="lowrank")
        owners_before = client.owners(registered.route)
        rng = np.random.default_rng(23)
        update = KernelUpdate.append_rows(
            rng.standard_normal((1, factor.shape[1])) / 2.0)
        expected = update.chained_fingerprint(registered.fingerprint)
        entry = client.update(registered.name, update)
        assert entry.fingerprint == expected
        assert entry.epoch == registered.epoch + 1
        # routing key is the chain *base*: the kernel never moves mid-stream
        assert entry.route == registered.route
        assert client.owners(entry.route) == owners_before

    def test_node_refuses_stale_chain_tip(self, cluster, factor):
        client = cluster.client()
        registered = client.register(factor, name="chain-b", kind="lowrank")
        rng = np.random.default_rng(25)
        update = KernelUpdate.append_rows(
            rng.standard_normal((1, factor.shape[1])) / 2.0)
        owner = client.owners(registered.route)[0]
        with pytest.raises(ValueError, match="stale or rebased"):
            client.call_node(owner, {"op": "update", "name": registered.name,
                                     "update": update, "prev": "0" * 64})

    def test_update_replies_carry_chain_metadata(self, cluster, psd):
        client = cluster.client()
        registered = client.register(psd, name="chain-c")
        u, _ = _vectors(psd.shape[0], seed=601)
        update = KernelUpdate.rank_one(u, weight=0.1)
        owner = client.owners(registered.route)[0]
        info = client.call_node(owner, {"op": "update", "name": registered.name,
                                        "update": update,
                                        "prev": registered.fingerprint})
        assert info["fingerprint"] == update.chained_fingerprint(
            registered.fingerprint)
        assert info["base_fingerprint"] == registered.fingerprint
        assert info["epoch"] == 1
        assert info["decision"] in ("patched", "recomputed")


# ---------------------------------------------------------------------- #
# observability: update decisions and delta bytes are measured
# ---------------------------------------------------------------------- #
class TestStreamingObservability:
    def test_update_metrics_and_delta_bytes(self, factor):
        obs.reset()
        obs.enable()
        try:
            with LocalCluster(nodes=2, replication=1) as cluster:
                session = serve_cluster(factor, kind="lowrank", cluster=cluster)
                rng = np.random.default_rng(27)
                session.append_items(rng.standard_normal(factor.shape[1]) / 2.0)
            counter = obs.registry().counter(
                "repro_kernel_updates_total", "", labelnames=("kind", "decision"))
            total = sum(counter.value(kind="lowrank", decision=decision)
                        for decision in ("patched", "recomputed"))
            assert total >= 1.0
            metrics = obs.snapshot()["metrics"]["metrics"]
            assert "repro_kernel_update_depth" in metrics
            assert "repro_cluster_update_delta_bytes" in metrics
        finally:
            obs.reset()
            obs.disable()

    def test_session_stats_count_update_decisions(self, psd):
        registry = KernelRegistry()
        registry.register("stats", psd)
        session = registry.session("stats")
        session.sample(k=K, seed=0)
        u, _ = _vectors(psd.shape[0], seed=700)
        session.update(u, weight=0.1)
        stats = session.stats
        assert stats["cache"]["update_patched"] + \
            stats["cache"]["update_recomputed"] >= 1
