"""The cluster layer: sharded registries + factorization caches over a ring.

One process can only hold so many kernels and their eigendecompositions.
This package shards the serving layer horizontally while keeping its
contract — **fixed-seed samples through a cluster are byte-identical to a
single-node session** — because shards run the ordinary
:mod:`repro.service` stack and the ring only decides *where* warm artifacts
live:

::

    workload                    cluster layer                      shard nodes
    --------                    -------------                      -----------
    serve_cluster(L) ──▶ ClusterSession ──▶ ClusterClient          ShardNode 0
                          sample/warm/       │ fingerprint ──▶     ┌─────────┐
                          submit/drain       ▼                     │registry │
                                          HashRing ── owners ──▶   │ + cache │
                                          (consistent hashing,     │ engine  │
                                           R replicas, vnodes)     └─────────┘
                                             │ failover                ...
                                             └─────────────────▶   ShardNode N-1

* :class:`~repro.cluster.ring.HashRing` — consistent hashing with virtual
  nodes, keyed on the same content fingerprints the factorization caches use.
* :class:`~repro.cluster.node.ShardNode` — a headless
  :class:`~repro.service.registry.KernelRegistry` +
  :class:`~repro.service.cache.FactorizationCache` behind a tiny
  length-prefixed-pickle socket protocol (register / warm / sample / drain /
  stats / export).
* :class:`~repro.cluster.client.ClusterClient` — routing, replication factor
  R with read-through failover, rebalance-on-membership-change that moves
  only ``≈ K/N`` fingerprints, and ``cluster_info()`` rolling up every
  node's ``cache_info()``.
* :class:`~repro.cluster.client.ClusterSession` — the drop-in
  ``SamplerSession``-shaped facade :func:`serve_cluster` returns.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cluster.client import ClusterClient, ClusterSession, RebalanceReport
from repro.cluster.local import LocalCluster
from repro.cluster.node import ShardNode
from repro.cluster.protocol import ClusterError, NodeUnavailable, RemoteError
from repro.cluster.ring import HashRing
from repro.service.registry import _refuse_registration_args
from repro.utils.rng import SeedLike

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterSession",
    "HashRing",
    "LocalCluster",
    "NodeUnavailable",
    "RebalanceReport",
    "RemoteError",
    "ShardNode",
    "serve_cluster",
]


def serve_cluster(kernel, *,
                  cluster: Optional[Union[LocalCluster, ClusterClient]] = None,
                  nodes: int = 3, replication: int = 1,
                  name: Optional[str] = None, kind: Optional[str] = None,
                  parts: Optional[Sequence[Sequence[int]]] = None,
                  counts: Optional[Sequence[int]] = None,
                  warm: bool = False, validate: bool = True,
                  scheduler_seed: SeedLike = 0) -> ClusterSession:
    """Open a :class:`ClusterSession` — ``repro.serve`` across shard nodes.

    ``kernel`` is a raw ensemble matrix (registered on its ring owners
    first) or the name of a kernel some client already registered.  With no
    ``cluster=``, a private :class:`LocalCluster` of ``nodes`` in-process
    shards is started and owned by the returned session (``close()`` shuts
    it down); pass an existing :class:`LocalCluster` or
    :class:`ClusterClient` to share one cluster across sessions.

    The facade keeps the single-node serving contract: for any node count
    ``N ≥ 1`` and replication ``R``, fixed-seed draws equal a single-node
    ``repro.serve(L)`` session's byte for byte — sharding moves
    preprocessing artifacts, never randomness.

    Examples
    --------
    >>> session = repro.serve_cluster(L, nodes=3, replication=2)  # doctest: +SKIP
    >>> session.sample(k=5, seed=123).subset                      # doctest: +SKIP
    """
    owned: Optional[LocalCluster] = None
    if cluster is None:
        owned = LocalCluster(nodes=nodes, replication=replication)
        client = owned.client()
    elif isinstance(cluster, LocalCluster):
        client = cluster.client()
    else:
        client = cluster
    try:
        if isinstance(kernel, str):
            entry = client.lookup(kernel)
            _refuse_registration_args(kernel, entry.kind, name=name, kind=kind,
                                      parts=parts, counts=counts)
            if warm:
                client.warm(kernel)
        else:
            entry = client.register(kernel, name=name, kind=kind, parts=parts,
                                    counts=counts, warm=warm, validate=validate)
    except BaseException:
        if owned is not None:
            owned.shutdown()
        raise
    return ClusterSession(client, entry, scheduler_seed=scheduler_seed,
                          owned_cluster=owned)
