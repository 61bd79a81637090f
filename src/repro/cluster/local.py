"""An in-process cluster: N shard nodes, one ring, one client.

:class:`LocalCluster` is the deployment used by tests, benchmarks, CI and
the single-machine scale-up story: every :class:`~repro.cluster.node.ShardNode`
runs as a thread serving a loopback socket, so the full wire protocol,
replication, failover and rebalance paths are exercised end to end without
any process orchestration.  A multi-host deployment replaces only this file:
start ``ShardNode``s wherever you like and hand their addresses to a
:class:`~repro.cluster.client.ClusterClient`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro import obs
from repro.cluster.client import ClusterClient, RebalanceReport
from repro.cluster.node import ShardNode
from repro.engine import BackendLike

__all__ = ["LocalCluster"]


class LocalCluster:
    """N in-process shard nodes behind one consistent-hash ring.

    Parameters
    ----------
    nodes:
        Initial node count (ids ``shard-0 .. shard-{N-1}``).
    replication:
        Replica factor R: every kernel registers on the first R distinct
        ring owners, and reads fail over along that set.
    backend:
        Execution backend every node samples with.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("nodes", "_next_index")}

    def __init__(self, nodes: int = 3, *, replication: int = 1,
                 backend: BackendLike = None):
        if nodes < 1:
            raise ValueError(f"nodes must be positive, got {nodes}")
        self._lock = threading.RLock()
        self._backend = backend
        self._next_index = 0
        self.nodes: Dict[str, ShardNode] = {}
        addresses: Dict[str, Tuple[str, int]] = {}
        for _ in range(int(nodes)):
            node = self._spawn()
            addresses[node.node_id] = node.start()
            self.nodes[node.node_id] = node
        self._client = ClusterClient(addresses, replication=replication)

    def _spawn(self, node_id: Optional[str] = None) -> ShardNode:
        with self._lock:
            if node_id is None:
                node_id = f"shard-{self._next_index}"
                self._next_index += 1
            return ShardNode(node_id, backend=self._backend)

    # ------------------------------------------------------------------ #
    def client(self) -> ClusterClient:
        """The shared routing client (one per cluster; thread-safe)."""
        return self._client

    @property
    def replication(self) -> int:
        return self._client.replication

    def node(self, node_id: str) -> ShardNode:
        # Locked lookup: a concurrent add_node/forget_node mutates the dict,
        # and an unlocked read could observe it mid-rehash.
        with self._lock:
            return self.nodes[str(node_id)]

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: Optional[str] = None) -> RebalanceReport:
        """Start a new shard, join the ring, and rebalance onto it.

        Only the fingerprints whose owner set gained the new node move
        (``≈ K/N`` of ``K`` registered kernels — the consistent-hashing
        guarantee the returned report lets callers verify).
        """
        node = self._spawn(node_id)
        address = node.start()
        with self._lock:
            self.nodes[node.node_id] = node
        return self._client.add_node(node.node_id, address)

    def remove_node(self, node_id: str) -> RebalanceReport:
        """Planned drain: re-home the node's kernels, then stop it."""
        report = self._client.remove_node(node_id)
        with self._lock:
            node = self.nodes.pop(str(node_id), None)
        if node is not None:
            node.stop()
        return report

    def kill_node(self, node_id: str) -> ShardNode:
        """Abrupt node death: stop serving *without* touching the ring.

        Traffic for its kernels fails over to replicas; call
        :meth:`forget_node` (or :meth:`remove_node` for a planned drain)
        once the operator gives up on it.
        """
        with self._lock:
            node = self.nodes[str(node_id)]
        # stop() outside the cluster lock: it joins the node's accept
        # thread, and membership operations must not stall behind that
        node.stop()
        obs.tracer().event("kill_node", node=str(node_id))
        return node

    def forget_node(self, node_id: str) -> RebalanceReport:
        """Drop a dead node: rebalance from surviving replicas, no drain."""
        report = self._client.forget_node(node_id)
        with self._lock:
            self.nodes.pop(str(node_id), None)
        return report

    # ------------------------------------------------------------------ #
    def cluster_info(self) -> Dict[str, object]:
        """Ring-wide stats rollup in the one stable schema documented by
        :mod:`repro.obs.rollup` (built via :meth:`ClusterClient.cluster_info`
        — both front ends share the same :func:`~repro.obs.rollup.cluster_rollup`
        helper, so the dicts can never drift apart)."""
        return self._client.cluster_info()

    def shutdown(self) -> None:
        """Stop every node and drop client connections (idempotent)."""
        with self._lock:
            nodes, self.nodes = list(self.nodes.values()), {}
        self._client.close()
        for node in nodes:
            node.stop()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __len__(self) -> int:
        with self._lock:
            return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LocalCluster(nodes={len(self)}, "
                f"replication={self._client.replication})")
