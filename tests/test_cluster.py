"""Cluster layer: ring determinism, wire protocol, replica failover,
rebalance movement bounds, and the core contract — fixed-seed samples drawn
through ``serve_cluster`` (any N, any replication R) are byte-identical to a
single-node ``repro.serve`` session on every kernel family."""

import gc
import socket
import threading
import weakref

import numpy as np
import pytest

import repro
from repro.cluster import (
    ClusterClient,
    ClusterError,
    HashRing,
    LocalCluster,
    NodeUnavailable,
    ShardNode,
    serve_cluster,
)
from repro.cluster.protocol import Connection, recv_frame, send_frame
from repro.linalg.updates import KernelUpdate
from repro.obs.rollup import CACHE_TOTAL_KEYS
from repro.service.cache import CacheStats
from repro.service.registry import kernel_fingerprint
from repro.service.session import SessionBase
from repro.workloads import clustered_ensemble, random_npsd_ensemble, random_psd_ensemble


@pytest.fixture(scope="module")
def psd():
    return random_psd_ensemble(16, rank=8, seed=5)


@pytest.fixture(scope="module")
def npsd():
    return random_npsd_ensemble(10, symmetric_scale=1.0, skew_scale=0.6, seed=7)


@pytest.fixture(scope="module")
def partitioned():
    L, parts = clustered_ensemble([4, 4], within=0.7, across=0.05, scale=1.5, seed=9)
    return L, parts


# ---------------------------------------------------------------------- #
# hash ring
# ---------------------------------------------------------------------- #
class TestHashRing:
    KEYS = [f"key-{i:04d}" for i in range(400)]

    def test_deterministic_under_reconstruction(self):
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n2", "n0", "n1"])  # insertion order must not matter
        for key in self.KEYS:
            assert a.nodes_for(key, 2) == b.nodes_for(key, 2)

    def test_owners_distinct_and_primary_first(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        for key in self.KEYS[:50]:
            owners = ring.nodes_for(key, 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners[0] == ring.node_for(key)

    def test_replication_beyond_membership_degrades_gracefully(self):
        ring = HashRing(["n0", "n1"])
        assert set(ring.nodes_for("k", 5)) == {"n0", "n1"}

    def test_join_moves_at_most_twice_the_fair_share(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = ring.ownership(self.KEYS, 1)
        ring.add_node("n3")
        after = ring.ownership(self.KEYS, 1)
        moved = HashRing.moved_keys(before, after)
        assert moved, "a join must capture some keys"
        assert len(moved) <= 2 * len(self.KEYS) / 4
        # keys that moved all moved TO the new node; the rest are untouched
        assert all(after[k] == ("n3",) for k in moved)
        untouched = set(self.KEYS) - set(moved)
        assert all(after[k] == before[k] for k in untouched)

    def test_leave_only_moves_departed_keys(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        before = ring.ownership(self.KEYS, 1)
        ring.remove_node("n3")
        after = ring.ownership(self.KEYS, 1)
        for key in self.KEYS:
            if before[key] != ("n3",):
                assert after[key] == before[key]

    def test_membership_helpers(self):
        ring = HashRing(vnodes=8)
        with pytest.raises(RuntimeError):
            ring.node_for("k")
        ring.add_node("a")
        ring.add_node("a")  # idempotent
        assert len(ring) == 1 and "a" in ring
        ring.remove_node("missing")  # no-op
        with pytest.raises(ValueError):
            HashRing(vnodes=0)
        with pytest.raises(ValueError):
            ring.nodes_for("k", 0)


# ---------------------------------------------------------------------- #
# wire protocol + node ops
# ---------------------------------------------------------------------- #
class TestProtocolAndNode:
    def test_frame_round_trip(self):
        import socket

        a, b = socket.socketpair()
        try:
            payload = {"op": "x", "array": np.arange(6.0).reshape(2, 3)}
            send_frame(a, payload)
            got = recv_frame(b)
            np.testing.assert_array_equal(got["array"], payload["array"])
            a.close()
            with pytest.raises(NodeUnavailable):
                recv_frame(b)
        finally:
            b.close()

    def test_node_ops_over_socket(self, psd):
        with ShardNode("node-a") as node:
            conn = Connection(node.address)
            try:
                assert conn.request({"op": "ping"})["pong"]
                fingerprint = kernel_fingerprint(psd)
                info = conn.request({"op": "register", "name": "k", "matrix": psd})
                assert info["fingerprint"] == fingerprint
                assert conn.request({"op": "warm", "name": "k"})
                result = conn.request({"op": "sample", "name": "k", "k": 4, "seed": 3})
                assert len(result.subset) == 4
                stats = conn.request({"op": "stats"})
                assert stats["samples_served"] == 1
                assert stats["registry"]["registered"] == 1
                assert stats["registry"]["cache"]["entries"] == 1
                catalog = conn.request({"op": "catalog"})
                assert catalog["k"]["fingerprint"] == fingerprint
                export = conn.request({"op": "export", "name": "k"})
                np.testing.assert_array_equal(export["matrix"], psd)
                assert conn.request({"op": "unregister", "name": "k"})
            finally:
                conn.close()

    def test_remote_exceptions_re_raise_locally(self, psd):
        with ShardNode("node-b") as node:
            conn = Connection(node.address)
            try:
                with pytest.raises(KeyError):
                    conn.request({"op": "sample", "name": "ghost", "k": 2, "seed": 0})
                with pytest.raises(ClusterError):
                    conn.request({"op": "no-such-op"})
            finally:
                conn.close()

    def test_handle_is_usable_in_process(self, psd):
        node = ShardNode("node-c")  # never started: no sockets involved
        node.handle({"op": "register", "name": "k", "matrix": psd})
        want = repro.serve(psd, name="ref", registry=repro.KernelRegistry()).sample(
            k=3, seed=11).subset
        assert node.handle({"op": "sample", "name": "k", "k": 3, "seed": 11}).subset == want

    def test_flush_drops_warm_state_but_keeps_registrations(self, psd):
        node = ShardNode("node-d")
        node.handle({"op": "register", "name": "k", "matrix": psd, "warm": True})
        assert node.registry.cache.cache_info()["entries"] == 1
        assert node.handle({"op": "flush"})
        assert node.registry.cache.cache_info()["entries"] == 0
        assert "k" in node.registry


# ---------------------------------------------------------------------- #
# the core contract: cluster == single node, bytes for bytes
# ---------------------------------------------------------------------- #
SEEDS = (0, 17, 123)


def _single_node_session(matrix, **kwargs):
    return repro.serve(matrix, registry=repro.KernelRegistry(), **kwargs)


class TestClusterByteIdentity:
    @pytest.fixture
    def cluster(self):
        with LocalCluster(nodes=3, replication=2) as cluster:
            yield cluster

    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 2), (3, 3)])
    def test_symmetric_spectral_any_n_any_r(self, psd, shape):
        nodes, replication = shape
        reference = _single_node_session(psd)
        with serve_cluster(psd, nodes=nodes, replication=replication) as session:
            for seed in SEEDS:
                assert session.sample(k=5, seed=seed).subset == \
                    reference.sample(k=5, seed=seed).subset

    def test_symmetric_parallel(self, cluster, psd):
        reference = _single_node_session(psd)
        session = serve_cluster(psd, cluster=cluster)
        for seed in SEEDS:
            assert session.sample(k=5, seed=seed, method="parallel").subset == \
                reference.sample(k=5, seed=seed, method="parallel").subset

    def test_symmetric_unconstrained(self, cluster, psd):
        reference = _single_node_session(psd)
        session = serve_cluster(psd, cluster=cluster)
        for seed in SEEDS:
            assert session.sample(seed=seed).subset == reference.sample(seed=seed).subset
            assert session.sample(seed=seed, method="parallel").subset == \
                reference.sample(seed=seed, method="parallel").subset

    def test_nonsymmetric(self, cluster, npsd):
        reference = _single_node_session(npsd, kind="nonsymmetric")
        session = serve_cluster(npsd, cluster=cluster, kind="nonsymmetric")
        for seed in SEEDS:
            assert session.sample(k=3, seed=seed).subset == \
                reference.sample(k=3, seed=seed).subset
            assert session.sample(seed=seed).subset == reference.sample(seed=seed).subset

    def test_partition(self, cluster, partitioned):
        L, parts = partitioned
        counts = [2, 1]
        reference = _single_node_session(L, kind="partition", parts=parts, counts=counts)
        session = serve_cluster(L, cluster=cluster, kind="partition",
                                parts=parts, counts=counts)
        for seed in SEEDS:
            assert session.sample(seed=seed).subset == reference.sample(seed=seed).subset

    def test_warm_never_changes_samples(self, cluster, psd):
        session = serve_cluster(psd, cluster=cluster).warm()
        reference = _single_node_session(psd).warm()
        assert session.sample(k=4, seed=9).subset == reference.sample(k=4, seed=9).subset

    def test_fused_drain_matches_single_node_scheduler(self, cluster, psd):
        reference = _single_node_session(psd)
        scheduler = repro.RoundScheduler(reference, seed=0)
        for _ in range(4):
            scheduler.submit(4)
        want = [result.subset for result in scheduler.drain()]
        session = serve_cluster(psd, cluster=cluster, scheduler_seed=0)
        for _ in range(4):
            session.submit(4)
        assert [result.subset for result in session.drain()] == want
        # explicit seeds also agree request for request
        for seed in SEEDS:
            session.submit(4, seed=seed)
        got = [result.subset for result in session.drain()]
        assert got == [reference.sample(k=4, seed=seed, method="parallel").subset
                       for seed in SEEDS]


# ---------------------------------------------------------------------- #
# failure modes
# ---------------------------------------------------------------------- #
class TestFailureModes:
    def test_node_death_fails_over_with_identical_sample(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            session = serve_cluster(psd, cluster=cluster, warm=True)
            want = session.sample(k=4, seed=21).subset
            primary = session.owners[0]
            cluster.kill_node(primary)  # the open connection dies mid-stream
            assert session.sample(k=4, seed=21).subset == want
            assert cluster.client().failovers >= 1

    def test_all_owners_down_raises_cluster_error(self, psd):
        with LocalCluster(nodes=2, replication=1) as cluster:
            session = serve_cluster(psd, cluster=cluster)
            cluster.kill_node(session.owners[0])
            with pytest.raises(ClusterError):
                session.sample(k=3, seed=1)

    def test_forget_dead_node_rehomes_from_replica(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            session = serve_cluster(psd, cluster=cluster)
            want = session.sample(k=4, seed=5).subset
            dead = session.owners[0]
            cluster.kill_node(dead)
            report = cluster.client().forget_node(dead)
            assert report.lost == ()
            assert dead not in session.owners
            assert session.sample(k=4, seed=5).subset == want

    def test_drain_failover_preserves_queue_and_results(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            reference = _single_node_session(psd)
            session = serve_cluster(psd, cluster=cluster)
            for seed in SEEDS:
                session.submit(4, seed=seed)
            cluster.kill_node(session.owners[0])
            got = [result.subset for result in session.drain()]
            assert got == [reference.sample(k=4, seed=seed, method="parallel").subset
                           for seed in SEEDS]

    @staticmethod
    def _accept_threads(*node_ids):
        names = {f"repro-shard-{node_id}" for node_id in node_ids}
        return [thread for thread in threading.enumerate() if thread.name in names]

    @staticmethod
    def _collected(ref, node_id):
        # a connection thread holds its node until it has closed its socket
        for thread in threading.enumerate():
            if thread.name == f"repro-shard-{node_id}-conn":
                thread.join(timeout=5.0)
        gc.collect()
        return ref() is None

    def test_killed_node_ends_its_accept_thread_and_refuses(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            session = serve_cluster(psd, cluster=cluster, warm=True)
            want = session.sample(k=4, seed=8).subset
            dead = session.owners[0]
            address = cluster.node(dead).address
            ref = weakref.ref(cluster.kill_node(dead))
            assert self._accept_threads(dead) == []
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5.0).close()
            assert session.sample(k=4, seed=8).subset == want
            cluster.forget_node(dead)
            assert self._collected(ref, dead)

    def test_shutdown_ends_every_accept_thread_and_frees_the_nodes(self, psd):
        cluster = LocalCluster(nodes=3, replication=2)
        session = serve_cluster(psd, cluster=cluster, warm=True)
        session.sample(k=4, seed=9)
        refs = {node_id: weakref.ref(node) for node_id, node in cluster.nodes.items()}
        session.close()
        cluster.shutdown()
        assert self._accept_threads(*refs) == []
        del cluster, session
        assert all(self._collected(ref, node_id) for node_id, ref in refs.items())

    def test_stop_wakes_accept_where_a_listener_refuses_shutdown(self, monkeypatch):
        # some platforms refuse shutdown() on a listening socket: stop() then
        # wakes the accept thread with one throwaway connection
        shutdown = socket.socket.shutdown

        def refuse_on_listeners(sock, how):
            if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN):
                raise OSError("shutdown refused on a listening socket")
            return shutdown(sock, how)

        monkeypatch.setattr(socket.socket, "shutdown", refuse_on_listeners)
        node = ShardNode("node-e")
        address = node.start()
        node.stop()
        assert self._accept_threads("node-e") == []
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5.0).close()

    def test_replica_registration_survives_one_down_owner(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            client = cluster.client()
            # kill a node BEFORE registering: registration must still succeed
            # on the surviving owner(s) of whatever lands there
            cluster.kill_node("shard-1")
            entry = client.register(psd)
            reference = _single_node_session(psd)
            assert client.sample(entry.name, k=3, seed=2).subset == \
                reference.sample(k=3, seed=2).subset

    @staticmethod
    def _owner_wide(op, client, psd, name):
        if op == "register":
            return client.register(psd, name=name)
        if op == "warm":
            return client.warm(name)
        return client.update(name, KernelUpdate.rank_one(np.full(psd.shape[0], 0.1)))

    @pytest.mark.parametrize("op", ["register", "warm", "update"])
    def test_owner_wide_ops_share_one_replica_policy(self, psd, op):
        # register, warm and update each reach every owner of the kernel:
        # a down owner is skipped, and only no answering owner is an error
        with LocalCluster(nodes=3, replication=2) as cluster:
            client = cluster.client()
            first, second = client.owners(kernel_fingerprint(psd))
            if op != "register":
                client.register(psd, name="replicated")
            cluster.kill_node(first)
            result = self._owner_wide(op, client, psd, "replicated")
            survivor = cluster.node(second).registry.get("replicated")
            assert survivor.epoch == (1 if op == "update" else 0)
            if op == "warm":
                assert result == 1  # the one owner that answered
            cluster.kill_node(second)
            with pytest.raises(ClusterError):
                self._owner_wide(op, client, psd, "replicated")

    @pytest.mark.parametrize("op", ["warm", "update"])
    def test_owner_wide_ops_skip_a_replica_missing_the_kernel(self, psd, op):
        with LocalCluster(nodes=3, replication=2) as cluster:
            client = cluster.client()
            first, second = client.owners(client.register(psd, name="partial").route)
            cluster.node(first).handle({"op": "unregister", "name": "partial"})
            self._owner_wide(op, client, psd, "partial")
            survivor = cluster.node(second).registry.get("partial")
            assert survivor.epoch == (1 if op == "update" else 0)
            assert "partial" not in cluster.node(first).registry


# ---------------------------------------------------------------------- #
# rebalance
# ---------------------------------------------------------------------- #
class TestRebalance:
    def test_join_moves_bounded_fraction_and_preserves_samples(self):
        kernels = [random_psd_ensemble(10, rank=5, seed=100 + i) for i in range(20)]
        with LocalCluster(nodes=3, replication=1) as cluster:
            client = cluster.client()
            entries = [client.register(L) for L in kernels]
            want = [client.sample(e.name, k=3, seed=33).subset for e in entries]
            report = cluster.add_node()
            assert report.total == len(kernels)
            assert report.lost == ()
            assert report.moved <= 2 * len(kernels) / len(cluster)
            assert [client.sample(e.name, k=3, seed=33).subset
                    for e in entries] == want

    def test_rebalance_moves_every_alias_of_shared_content(self, psd):
        # two names over one matrix share a fingerprint (and ring owners);
        # a move must re-register BOTH names on the new owner, not just one
        with LocalCluster(nodes=2, replication=1) as cluster:
            client = cluster.client()
            first = client.register(psd, name="alias-a")
            second = client.register(psd, name="alias-b")
            assert first.fingerprint == second.fingerprint
            want = client.sample("alias-a", k=3, seed=12).subset
            for _ in range(4):  # joins until the shared fingerprint moves
                owners_before = client.owners(first.fingerprint)
                cluster.add_node()
                if client.owners(first.fingerprint) != owners_before:
                    break
            assert client.sample("alias-a", k=3, seed=12).subset == want
            assert client.sample("alias-b", k=3, seed=12).subset == want

    def test_forget_node_never_contacts_the_dead_node(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            client = cluster.client()
            client.register(psd)
            dead = client.owners(client.register(psd).fingerprint)[0]
            cluster.kill_node(dead)
            contacted = []
            original = client.call_node

            def spy(node_id, request):
                contacted.append(node_id)
                return original(node_id, request)

            client.call_node = spy
            report = cluster.forget_node(dead)
            assert dead not in contacted
            assert report.lost == ()  # the replica held a copy

    def test_removing_the_last_node_is_rejected_cleanly(self, psd):
        with LocalCluster(nodes=1) as cluster:
            client = cluster.client()
            entry = client.register(psd)
            with pytest.raises(ClusterError, match="last ring node"):
                client.remove_node("shard-0")
            assert client.ring.nodes == ("shard-0",)  # ring untouched
            assert client.sample(entry.name, k=3, seed=1).subset  # still serving

    def test_planned_drain_rehomes_everything(self):
        kernels = [random_psd_ensemble(8, rank=4, seed=200 + i) for i in range(8)]
        with LocalCluster(nodes=3, replication=1) as cluster:
            client = cluster.client()
            entries = [client.register(L) for L in kernels]
            want = [client.sample(e.name, k=2, seed=4).subset for e in entries]
            report = cluster.remove_node("shard-0")
            assert report.lost == ()
            assert "shard-0" not in client.ring.nodes
            assert [client.sample(e.name, k=2, seed=4).subset
                    for e in entries] == want


# ---------------------------------------------------------------------- #
# stats rollup + facade surface
# ---------------------------------------------------------------------- #
class TestClusterInfoAndFacade:
    def test_cluster_info_rolls_up_node_caches(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            session = serve_cluster(psd, cluster=cluster, warm=True)
            for seed in SEEDS:
                session.sample(k=4, seed=seed)
            session.update(np.random.default_rng(3).standard_normal(psd.shape[0]),
                           weight=0.1)
            info = cluster.cluster_info()
            assert info["alive"] == 3
            assert info["registered"] == 1
            assert info["samples_served"] == len(SEEDS)
            assert info["cache"]["entries"] == 2  # primary + one replica, live epoch
            assert info["cache"]["misses"] >= 2
            assert set(info["nodes"]) == set(info["ring"]["nodes"])
            # every CacheStats counter plus the occupancy keys, summed over nodes
            assert set(CACHE_TOTAL_KEYS) == set(CacheStats().as_dict()) | {"entries", "nbytes"}
            assert set(info["cache"]) == set(CACHE_TOTAL_KEYS)
            for key in CACHE_TOTAL_KEYS:
                assert info["cache"][key] == sum(
                    stats["registry"]["cache"][key] for stats in info["nodes"].values())
            assert info["cache"]["update_patched"] + info["cache"]["update_recomputed"] == 2

    def test_unreachable_nodes_are_reported_not_fatal(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            serve_cluster(psd, cluster=cluster)
            cluster.kill_node("shard-2")
            info = cluster.cluster_info()
            assert info["alive"] == 2
            assert "unreachable" in info["nodes"]["shard-2"]

    @staticmethod
    def _assert_shared_surface(session, psd):
        """What a local and a cluster session share, one code path for both."""
        for member in ("entry", "name", "kind", "n", "fingerprint", "epoch", "closed",
                       "__enter__", "__exit__", "update", "append_items", "delete_items"):
            assert getattr(type(session), member) is getattr(SessionBase, member)
        assert session.kind == "symmetric" and session.n == psd.shape[0]
        assert session.name == session.entry.name
        assert session.fingerprint == kernel_fingerprint(psd) and session.epoch == 0
        assert not session.closed
        entry = session.update(np.full(psd.shape[0], 0.1))
        assert session.epoch == entry.epoch == 1
        assert session.fingerprint == entry.fingerprint != kernel_fingerprint(psd)

    def test_session_surface_is_sampler_session_shaped(self, psd):
        with repro.serve(psd, registry=repro.KernelRegistry()) as local:
            self._assert_shared_surface(local, psd)
        with serve_cluster(psd, nodes=2) as session:
            self._assert_shared_surface(session, psd)
            with pytest.raises(TypeError):
                session.sample(k=3, seed=np.random.default_rng(0))
            with pytest.raises(ValueError):
                session.sample(k=3, seed=0, config=object())
            with pytest.raises(ValueError):
                session.sample(k=3, seed=0, backend="serial")
            # unshippable arguments are rejected at submit(), not at drain()
            # — a poison entry would otherwise wedge the re-queue-on-error
            # drain loop forever
            with pytest.raises(ValueError):
                session.submit(3, config=object())
            with pytest.raises(ValueError):
                session.submit(3, backend="serial")
            with pytest.raises(TypeError):
                session.submit(3, seed=np.random.default_rng(0))
            session.submit(3, seed=4)
            assert session.pending == 1
            assert len(session.drain()) == 1  # the queue stayed healthy
        for closed in (local, session):
            assert closed.closed
            with pytest.raises(RuntimeError, match="closed"):
                closed.sample(k=3, seed=0)
            with pytest.raises(RuntimeError, match="closed"):
                closed.update(np.full(psd.shape[0], 0.1))
            closed.close()  # idempotent

    def test_serve_cluster_by_name_shares_registrations(self, psd):
        with LocalCluster(nodes=2) as cluster:
            first = serve_cluster(psd, cluster=cluster, name="shared")
            second = serve_cluster("shared", cluster=cluster)
            assert second.fingerprint == first.fingerprint
            assert second.sample(k=3, seed=8).subset == first.sample(k=3, seed=8).subset
            with pytest.raises(ValueError):
                serve_cluster("shared", cluster=cluster, kind="nonsymmetric")
            with pytest.raises(ValueError):
                serve_cluster("shared", cluster=cluster, name="other")
            with pytest.raises(KeyError):
                serve_cluster("ghost", cluster=cluster)

    def test_owned_cluster_shuts_down_on_close(self, psd):
        session = serve_cluster(psd, nodes=2)
        owned = session._owned_cluster
        assert len(owned) == 2
        session.close()
        assert len(owned) == 0
        assert all(not node.running for node in owned.nodes.values())

    def test_concurrent_sessions_share_the_ring(self, psd):
        with LocalCluster(nodes=3, replication=2) as cluster:
            matrices = [random_psd_ensemble(10, rank=5, seed=300 + i) for i in range(4)]
            sessions = [serve_cluster(m, cluster=cluster) for m in matrices]
            references = [_single_node_session(m) for m in matrices]
            results = [None] * len(sessions)

            def run(i):
                results[i] = sessions[i].sample(k=3, seed=55).subset

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(sessions))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert results == [ref.sample(k=3, seed=55).subset for ref in references]
