"""Cluster client: consistent-hash routing, replication, and the session facade.

:class:`ClusterClient` is the piece every serving process embeds: it holds
the :class:`~repro.cluster.ring.HashRing`, one lazy
:class:`~repro.cluster.protocol.Connection` per shard node, and a catalog of
``name -> (fingerprint, kind)`` registrations.  Every kernel is routed by the
same content fingerprint that keys the factorization caches
(:func:`~repro.service.registry.kernel_fingerprint`), so the node that owns a
kernel's traffic is exactly the node holding its warm eigendecompositions.

Replication factor ``R`` places each kernel on the first ``R`` distinct
ring owners.  Reads (sample/drain) go primary-first and **fail over** to the
next replica when a node is unreachable — and because node-side sampling is
seed-deterministic, a failover returns the byte-identical sample the primary
would have produced.  The owner-wide ops (register/update/warm) share one
replica policy: each is sent to every owner, an owner that is down or never
received the kernel is skipped, and the op fails only when no owner answered.

:class:`ClusterSession` is the drop-in handle :func:`repro.serve_cluster`
returns.  It subclasses :class:`~repro.service.session.SessionBase` as
``SamplerSession`` does, so both share one ``entry`` / ``name`` / ``kind`` /
``n`` / ``fingerprint`` / ``epoch`` / ``closed`` surface and one set of
update constructors; its ``sample / warm / close`` (and ``submit / drain``)
are backed by the ring instead of a local registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cluster.protocol import (ClusterError, Connection, NodeUnavailable,
                                    attach_trace)
from repro.cluster.ring import HashRing
from repro.service.registry import KernelConflict, kernel_entry
from repro.service.session import SessionBase
from repro.utils.rng import SeedLike, substream_seed

__all__ = ["ClusterClient", "ClusterSession", "RebalanceReport"]


@dataclass
class _CatalogEntry:
    name: str
    fingerprint: str
    kind: str
    n: int
    #: placement-stable routing identity: the *base* of the kernel's update
    #: chain (equal to ``fingerprint`` until the first incremental update).
    #: Routing by it keeps a mutating kernel on its owners — updates ship
    #: deltas instead of triggering ring moves.
    route: str
    #: how many incremental updates the chain has absorbed
    epoch: int

    @classmethod
    def from_reply(cls, info: dict) -> "_CatalogEntry":
        """The entry a node's reply describes
        (:meth:`~repro.service.registry.RegisteredKernel.describe`)."""
        return cls(name=info["name"], fingerprint=info["fingerprint"], kind=info["kind"],
                   n=int(info["n"]), route=info["base_fingerprint"],
                   epoch=int(info["epoch"]))


@dataclass
class RebalanceReport:
    """What a ring-membership change actually moved."""

    #: fingerprints whose owner set gained at least one node
    moved: int
    #: registered fingerprints at the time of the change
    total: int
    #: fingerprints that could not be copied (every previous owner down)
    lost: Tuple[str, ...] = ()

    @property
    def moved_fraction(self) -> float:
        return self.moved / self.total if self.total else 0.0


def _wire_seed(seed: SeedLike) -> object:
    """Validate that ``seed`` can cross the wire reproducibly."""
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "cluster sessions need a re-derivable seed (int or SeedSequence); "
            "a Generator's state cannot be shipped to a shard node"
        )
    return seed


def _sample_request(name: str, k: Optional[int], seed: SeedLike,
                    method: Optional[str], delta: float) -> dict:
    """The ``sample`` op of one draw of kernel ``name``."""
    return {"op": "sample", "name": name, "k": k, "seed": _wire_seed(seed),
            "method": method, "delta": delta}


#: per-call sampler arguments that do not ship over the wire, and what to
#: do instead
_NODE_SIDE = {
    "config": "sampler config objects hold callables; tune delta= instead",
    "backend": "set the backend on the ShardNode",
    "tracker": "read reports from the result",
}


def _refuse_node_side(**arguments: object) -> None:
    """Refuse the per-call arguments of :data:`_NODE_SIDE` a caller set."""
    for name, instead in _NODE_SIDE.items():
        if arguments.get(name) is not None:
            raise ValueError(f"{name}= does not ship over the cluster wire: {instead}")


class ClusterClient:
    """Routing client over a set of shard-node addresses.

    ``addresses`` maps node id to ``(host, port)``; the ring is derived from
    the ids.  All methods are thread-safe.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_connections", "_catalog", "failovers")}

    def __init__(self, addresses: Dict[str, Tuple[str, int]], *,
                 replication: int = 1, timeout: float = 30.0):
        if replication < 1:
            raise ValueError(f"replication must be positive, got {replication}")
        self.addresses = {str(node): (host, int(port))
                          for node, (host, port) in addresses.items()}
        self.replication = int(replication)
        self.timeout = float(timeout)
        self.ring = HashRing(self.addresses)
        self._lock = threading.RLock()
        self._connections: Dict[str, Connection] = {}
        self._catalog: Dict[str, _CatalogEntry] = {}
        self.failovers = 0

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self, node_id: str) -> Connection:
        with self._lock:
            connection = self._connections.get(node_id)
            if connection is None:
                address = self.addresses.get(node_id)
                if address is None:
                    raise ClusterError(f"no address for node {node_id!r}")
                connection = Connection(address, timeout=self.timeout)
                self._connections[node_id] = connection
            return connection

    def call_node(self, node_id: str, request: dict):
        """One request to one specific node (no failover).

        The active trace context (if any) rides the frame as its optional
        ``trace`` field so the node can open server-side child spans.
        """
        request = attach_trace(request, obs.current_context())
        return self._connection(node_id).request(request)

    def owners(self, fingerprint: str) -> Tuple[str, ...]:
        """The replica set for ``fingerprint``, primary first."""
        return self.ring.nodes_for(fingerprint, self.replication)

    def call(self, fingerprint: str, request: dict):
        """Routed request with replica failover.

        Unreachable owners (and replicas missing the kernel, e.g. mid-
        rebalance) are skipped in ring order; the first answer wins.  Every
        cluster op is idempotent/deterministic, so a retry on the next
        replica can never produce a different outcome than the primary —
        including byte-identical fixed-seed samples.
        """
        op = request.get("op", "call") if isinstance(request, dict) else "call"
        last_error: Optional[BaseException] = None
        for position, node_id in enumerate(self.owners(fingerprint)):
            # one wire span per attempt: a failover leaves its failed hop in
            # the tree (outcome="failover") next to the replica that answered
            wire_span = obs.start_span(f"rpc-{op}", category="wire",
                                       node=node_id, attempt=position)
            try:
                with obs.activate(wire_span.context if wire_span is not None
                                  else None):
                    value = self.call_node(node_id, request)
            except (NodeUnavailable, KeyError) as exc:
                # KeyError: the replica exists but never received this kernel
                # (a join raced the rebalance) — read through to the next one
                obs.end_span(wire_span, outcome="failover", error=exc)
                last_error = exc
                if position + 1 < len(self.owners(fingerprint)):
                    with self._lock:
                        self.failovers += 1
                    obs.record_failover(fingerprint)
            except BaseException as exc:  # genuine remote error: no failover
                obs.end_span(wire_span, outcome="error", error=exc)
                raise
            else:
                obs.end_span(wire_span, outcome="ok")
                return value
        if isinstance(last_error, KeyError):
            raise last_error
        raise ClusterError(
            f"all owners of {fingerprint[:12]} are unreachable"
        ) from last_error

    # ------------------------------------------------------------------ #
    # registration & catalog
    # ------------------------------------------------------------------ #
    def register(self, matrix: np.ndarray, *, name: Optional[str] = None,
                 kind: Optional[str] = None,
                 parts: Optional[Sequence[Sequence[int]]] = None,
                 counts: Optional[Sequence[int]] = None,
                 warm: bool = False, validate: bool = True) -> _CatalogEntry:
        """Register a kernel on every ring owner of its content fingerprint.

        The fingerprint is computed client-side (it decides *where* to
        register) by the registry's own front door
        (:func:`~repro.service.registry.kernel_entry`), which also gives an
        unnamed kernel its auto-name; registration succeeds if at least one
        owner accepted — down replicas catch up on the next rebalance.  A
        :class:`~repro.distributions.lowrank.LowRankKernel` registers its
        ``n x k`` factor under ``kind="lowrank"`` — only ``n·k`` floats cross
        the wire, and the owning shard caches ``k``-sized artifacts.
        ``warm=True`` has each owner warm its session on the kernel.
        """
        cold = kernel_entry(matrix, name, kind=kind, parts=parts, counts=counts)
        try:
            replies = self._fan_out(cold.fingerprint, {
                "op": "register", "name": cold.name, "matrix": cold.matrix,
                "kind": cold.kind, "parts": parts, "counts": counts, "warm": warm,
                "validate": validate})
        except KernelConflict as exc:  # the wire takes no overwrite=
            raise KernelConflict(exc.name, exc.epoch, front="serve_cluster") from None
        for info in replies:
            if info["fingerprint"] != cold.fingerprint:  # pragma: no cover - contract guard
                raise ClusterError(
                    f"node {info['node']} derived fingerprint {info['fingerprint'][:12]} "
                    f"for a kernel routed by {cold.fingerprint[:12]}"
                )
        entry = _CatalogEntry.from_reply(replies[0])
        with self._lock:
            self._catalog[entry.name] = entry
        return entry

    def lookup(self, name: str) -> _CatalogEntry:
        """Catalog entry for ``name``; asks the nodes when not cached locally."""
        with self._lock:
            entry = self._catalog.get(name)
        if entry is not None:
            return entry
        for node_id in self.ring.nodes:
            try:
                catalog = self.call_node(node_id, {"op": "catalog"})
            except NodeUnavailable:
                continue
            info = catalog.get(name)
            if info is not None:
                entry = _CatalogEntry.from_reply(info)
                with self._lock:
                    self._catalog[name] = entry
                return entry
        raise KeyError(f"no kernel registered under {name!r} on any reachable node")

    def catalog(self) -> Dict[str, str]:
        """``name -> fingerprint`` of everything this client has registered."""
        with self._lock:
            return {name: entry.fingerprint for name, entry in self._catalog.items()}

    # ------------------------------------------------------------------ #
    # serving surface
    # ------------------------------------------------------------------ #
    def session(self, name: str, *, scheduler_seed: SeedLike = 0) -> "ClusterSession":
        """Open a :class:`ClusterSession` (the ``SamplerSession`` facade)."""
        return ClusterSession(self, self.lookup(name), scheduler_seed=scheduler_seed)

    def sample(self, name: str, k: Optional[int] = None, *, seed: SeedLike = None,
               method: Optional[str] = None, delta: float = 1e-2):
        entry = self.lookup(name)
        return self.call(entry.route, _sample_request(name, k, seed, method, delta))

    def update(self, name: str, update) -> _CatalogEntry:
        """Apply an incremental kernel update on every owner — shipping only
        the delta (``update.delta_nbytes`` bytes of arrays), never the
        mutated matrix.

        The client derives the successor fingerprint from the chain
        (:meth:`~repro.linalg.updates.KernelUpdate.chained_fingerprint`) and
        *verifies* each accepting owner reports exactly that fingerprint — a
        replica whose chain diverged (e.g. re-registered cold by a rebalance,
        which collapses the chain to a content fingerprint; the documented
        limitation of mixing rebalances with in-flight updates) fails loudly
        instead of serving from a forked kernel.  Routing stays on the chain's
        *base* fingerprint, so updates never move a kernel across the ring.
        """
        entry = self.lookup(name)
        expected = update.chained_fingerprint(entry.fingerprint)
        obs.record_update_delta(update.delta_nbytes)
        replies = self._fan_out(entry.route, {"op": "update", "name": name,
                                              "update": update, "prev": entry.fingerprint})
        for info in replies:
            if info["fingerprint"] != expected:
                raise ClusterError(
                    f"node {info['node']} applied an update to {name!r} but landed on "
                    f"chain fingerprint {info['fingerprint'][:12]}, client "
                    f"derived {expected[:12]} — replica chain diverged"
                )
        new_entry = _CatalogEntry.from_reply(replies[0])
        with self._lock:
            self._catalog[name] = new_entry
        return new_entry

    def warm(self, name: str) -> int:
        """Warm the kernel on every reachable owner; returns how many warmed."""
        return len(self._fan_out(self.lookup(name).route, {"op": "warm", "name": name}))

    def _fan_out(self, route: str, request: dict) -> List[dict]:
        """Send ``request`` to every ring owner of ``route``; the owners' replies.

        The one replica policy of the owner-wide ops (:meth:`register`,
        :meth:`update`, :meth:`warm`): an unreachable owner, or one that never
        received the kernel (``KeyError``), is skipped — it catches up on the
        next rebalance — and the op fails with :class:`ClusterError` only
        when no owner answered.  A genuine remote error propagates at once.
        """
        replies: List[dict] = []
        last_error: Optional[BaseException] = None
        for node_id in self.owners(route):
            try:
                replies.append(self.call_node(node_id, request))
            except (NodeUnavailable, KeyError) as exc:
                last_error = exc
        if not replies:
            raise ClusterError(
                f"no owner of {request['name']!r} ({route[:12]}) answered "
                f"{request['op']!r}"
            ) from last_error
        return replies

    # ------------------------------------------------------------------ #
    # membership & rebalance
    # ------------------------------------------------------------------ #
    def _catalog_by_fingerprint_locked(self) -> Dict[str, List[_CatalogEntry]]:
        """Registered entries grouped by content (several names may share one
        fingerprint; every name must survive a move, not just one of them).
        Caller holds ``self._lock`` (the ``_locked`` suffix contract)."""
        grouped: Dict[str, List[_CatalogEntry]] = {}
        for entry in self._catalog.values():
            grouped.setdefault(entry.route, []).append(entry)
        return grouped

    def add_node(self, node_id: str, address: Tuple[str, int]) -> RebalanceReport:
        """Join ``node_id`` and move only the fingerprints it now owns.

        Consistent hashing guarantees the moved set is ≈ ``K/N`` of the
        ``K`` registered fingerprints (``≈ R·K/N`` with replication) — the
        report's ``moved``/``moved_fraction`` make that checkable.
        """
        with self._lock:
            grouped = self._catalog_by_fingerprint_locked()
            before = self.ring.ownership(grouped, self.replication)
            self.addresses[str(node_id)] = (address[0], int(address[1]))
            self.ring.add_node(node_id)
            after = self.ring.ownership(grouped, self.replication)
        return self._move(grouped, before, after)

    def remove_node(self, node_id: str, *, contact: bool = True) -> RebalanceReport:
        """Leave ``node_id`` (planned drain): re-home its kernels first.

        The departing node stays addressable until the move completes — it
        may be the only copy of some kernels (R=1), in which case it is the
        export source.  ``contact=False`` (what :meth:`forget_node` passes
        for a node known to be dead) never opens a connection to it, so a
        black-holed host cannot stall the move on per-kernel timeouts.
        """
        with self._lock:
            if str(node_id) in self.ring and len(self.ring) == 1:
                raise ClusterError(
                    f"cannot remove {node_id!r}: it is the last ring node, "
                    "there is nowhere to re-home its kernels"
                )
            grouped = self._catalog_by_fingerprint_locked()
            before = self.ring.ownership(grouped, self.replication)
            self.ring.remove_node(node_id)
            after = self.ring.ownership(grouped, self.replication)
        report = self._move(grouped, before, after, drained=str(node_id),
                            contact_drained=contact)
        with self._lock:
            connection = self._connections.pop(str(node_id), None)
            self.addresses.pop(str(node_id), None)
        if connection is not None:
            connection.close()
        return report

    def forget_node(self, node_id: str) -> RebalanceReport:
        """Remove a *dead* node from the ring (no drain attempt).

        Unlike :meth:`remove_node` this never contacts the departing node —
        kernels are re-copied onto their new owners from surviving replicas
        (with R=1 the dead node held the only copy, so those fingerprints
        are reported as ``lost`` instead of stalling on its timeouts).
        """
        return self.remove_node(node_id, contact=False)

    def _move(self, grouped: Dict[str, List[_CatalogEntry]],
              before: Dict[str, Tuple[str, ...]],
              after: Dict[str, Tuple[str, ...]],
              drained: Optional[str] = None,
              contact_drained: bool = True) -> RebalanceReport:
        moved = 0
        lost: List[str] = []
        for fingerprint, owners in after.items():
            previous = before.get(fingerprint, ())
            new_owners = [node for node in owners if node not in previous]
            if not new_owners:
                continue
            moved += 1
            entries = grouped[fingerprint]
            payload = self._export(entries, previous,
                                   drained if contact_drained else None,
                                   avoid=None if contact_drained else drained)
            if payload is None:
                lost.append(fingerprint)
                continue
            # equal-content names share one matrix but are registered (and
            # looked up) independently: every alias must reach the new owners
            for entry in entries:
                request = {"op": "register", "name": entry.name,
                           "matrix": payload["matrix"], "kind": payload["kind"],
                           "parts": payload["parts"], "counts": payload["counts"],
                           # the exporter validated at original registration time
                           "warm": False, "validate": False}
                for node_id in new_owners:
                    try:
                        self.call_node(node_id, request)
                    except NodeUnavailable:
                        continue  # it will read-through repair on first use
        return RebalanceReport(moved=moved, total=len(after), lost=tuple(lost))

    def _export(self, entries: List[_CatalogEntry], previous: Tuple[str, ...],
                drained: Optional[str], avoid: Optional[str] = None) -> Optional[dict]:
        sources = [node for node in previous if node != drained and node != avoid]
        if drained is not None and drained in previous:
            sources.append(drained)  # last resort: the draining node itself
        for node_id in sources:
            for entry in entries:
                try:
                    return self.call_node(node_id, {"op": "export", "name": entry.name})
                except (ClusterError, KeyError):  # unreachable, dropped, or missing
                    continue
        return None

    # ------------------------------------------------------------------ #
    # diagnostics & lifecycle
    # ------------------------------------------------------------------ #
    def cluster_info(self) -> Dict[str, object]:
        """Per-node stats plus a cache rollup across the whole ring.

        Transport (the per-node ``stats`` calls) happens here; the schema
        and the arithmetic live in the shared
        :func:`repro.obs.rollup.cluster_rollup` helper — the one documented
        stable schema every cluster front end reports.
        """
        nodes: Dict[str, Dict[str, object]] = {}
        for node_id in self.ring.nodes:
            try:
                nodes[node_id] = self.call_node(node_id, {"op": "stats"})
            except NodeUnavailable as exc:
                nodes[node_id] = {"unreachable": str(exc)}
        with self._lock:  # one consistent snapshot of catalog size + failovers
            registered = len(self._catalog)
            failovers = self.failovers
        return obs.cluster_rollup(
            nodes, ring_nodes=self.ring.nodes, vnodes=self.ring.vnodes,
            replication=self.replication, registered=registered,
            failovers=failovers)

    def failover_count(self) -> int:
        """Locked read of the replica-failover counter (for stats builders)."""
        with self._lock:
            return self.failovers

    def close(self) -> None:
        with self._lock:
            connections, self._connections = list(self._connections.values()), {}
        for connection in connections:
            connection.close()


class ClusterSession(SessionBase):
    """``SamplerSession``-shaped facade over one cluster-registered kernel.

    Drop-in for the single-node session: both subclass
    :class:`~repro.service.session.SessionBase`, so ``entry`` / ``name`` /
    ``kind`` / ``n`` / ``fingerprint`` / ``epoch`` / ``closed``, the ``with``
    block and the update constructors are one code path, and ``sample``,
    ``warm``, ``close`` (and ``submit``/``drain`` for fused batches) keep the
    same defaults and the same fixed-seed samples.  The differences are the
    wire constraints (seeds must be re-derivable, sampler ``config`` objects
    and per-call ``backend`` overrides do not ship) and that ``close`` only
    releases client state (shard registrations are durable by design).
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_entry", "_queue", "_pending_spans",
                             "_submitted", "_closed", "samples_served")}

    def __init__(self, client: ClusterClient, entry: _CatalogEntry, *,
                 scheduler_seed: SeedLike = 0, owned_cluster=None):
        super().__init__(entry)
        self._client = client
        self._root_seed = scheduler_seed if scheduler_seed is not None else 0
        self._owned_cluster = owned_cluster
        self._queue: List[dict] = []
        #: one request span (``None`` when dark) per queued request, index-
        #: aligned with ``_queue`` (swapped/restored together by drain)
        self._pending_spans: List[Optional[obs.Span]] = []
        self._submitted = 0
        self.samples_served = 0

    # ------------------------------------------------------------------ #
    @property
    def owners(self) -> Tuple[str, ...]:
        """Current replica set (primary first) — changes with the ring."""
        return self._client.owners(self.entry.route)

    # ------------------------------------------------------------------ #
    def sample(self, k: Optional[int] = None, *, seed: SeedLike = None,
               method: Optional[str] = None, delta: float = 1e-2,
               config=None, backend=None, tracker=None):
        """One draw, routed to the kernel's primary (replicas on failure).

        Fixed-seed draws are byte-identical to ``repro.serve(...)`` on a
        single node: the shard runs the very same session/sampler stack.
        """
        self._check_open()
        _refuse_node_side(config=config, backend=backend, tracker=tracker)
        with obs.span("cluster-sample", category="request", family=self.kind,
                      kernel=self.name, method=method,
                      k=-1 if k is None else int(k)):
            result = self._client.call(self.entry.route, _sample_request(
                self.name, k, seed, method, delta))
        with self._lock:
            self.samples_served += 1
        return result

    def warm(self) -> "ClusterSession":
        """Precompute factorization artifacts on every reachable owner."""
        self._check_open()
        self._client.warm(self.name)
        return self

    # ------------------------------------------------------------------ #
    # streaming kernels: ship deltas, never the mutated matrix
    # ------------------------------------------------------------------ #
    def _apply_update(self, update) -> _CatalogEntry:
        self._check_open()
        entry = self._client.update(self.name, update)
        with self._lock:
            if entry.epoch >= self._entry.epoch:
                self._entry = entry
        return entry

    # ------------------------------------------------------------------ #
    # fused batches: queue client-side, fuse node-side
    # ------------------------------------------------------------------ #
    def submit(self, k: Optional[int] = None, *, seed: SeedLike = None,
               method: str = "parallel", **kwargs) -> int:
        """Queue one draw for the next :meth:`drain`; returns its index.

        Unseeded requests get the same deterministic substream a local
        :class:`~repro.service.scheduler.RoundScheduler` would assign
        (:func:`~repro.utils.rng.substream_seed` — the shared derivation),
        shipped as a picklable ``SeedSequence`` — so a cluster drain is
        byte-identical to a single-node ``session.submit()/drain()`` with
        the same root seed.

        Unshippable arguments are rejected *here*, exactly as :meth:`sample`
        rejects them — accepting them would poison the queue and fail every
        later :meth:`drain` (which re-queues on error by design).
        """
        self._check_open()
        _refuse_node_side(**kwargs)
        with self._lock:
            index = self._submitted
            self._submitted += 1
            if seed is None:
                seed = substream_seed(self._root_seed, index)
            queued = {"k": k, "seed": _wire_seed(seed), "method": method,
                      "kwargs": dict(kwargs)}
            # each request is born as a trace root here; its context ships
            # inside the queued dict so the node's drain scheduler parents
            # the server-side span tree under it, and the node never counts
            # the request again
            span = obs.start_span("cluster-request", category="request",
                                  family=self._entry.kind,
                                  kernel=self._entry.name,
                                  method=method, index=index)
            if span is not None:
                queued["trace"] = span.context.as_wire()
            self._queue.append(queued)
            self._pending_spans.append(span)
            return index

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def drain(self) -> List[object]:
        """Execute the queued draws as one node-side fused batch.

        Tracing: the drain itself runs under one ``cluster-drain`` span
        **linked** to every queued request's root span (the wire hop and any
        failover land under it); each request's own span ends here with its
        queue wait, and, as a root, feeds its end-to-end latency to the
        per-family SLO stream — one observation per request, exactly like
        single-node scheduling.
        """
        self._check_open()
        with self._lock:
            queue, self._queue = self._queue, []
            pending, self._pending_spans = self._pending_spans, []
        if not queue:
            return []
        started = time.perf_counter()
        links = [span.context for span in pending if span is not None]
        try:
            with obs.span("cluster-drain", category="drain",
                          links=links or None, requests=len(queue)):
                results = self._client.call(self.entry.route, {
                    "op": "drain", "name": self.name, "requests": queue,
                    "seed": self._root_seed if not isinstance(
                        self._root_seed, np.random.SeedSequence) else 0,
                })
        except BaseException:
            with self._lock:  # failed drains leave the queue (and spans) intact
                self._queue = queue + self._queue
                self._pending_spans = pending + self._pending_spans
            raise
        finished = time.perf_counter()
        for span in pending:
            if span is not None:
                obs.end_span(span, end=finished, queue_wait=started - span.start)
        with self._lock:
            self.samples_served += len(results)
        return results

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> Dict[str, object]:
        with self._lock:
            samples_served = self.samples_served
        return {
            "kernel": self.name,
            "kind": self.kind,
            "n": self.n,
            "owners": list(self.owners),
            "samples_served": samples_served,
            "failovers": self._client.failover_count(),
        }

    def close(self) -> None:
        """Close the facade (idempotent).

        Shard-side registrations are durable; only when this session owns a
        private auto-started cluster (``repro.serve_cluster(matrix)`` with no
        ``cluster=``) is that cluster shut down with it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            owned, self._owned_cluster = self._owned_cluster, None
        if owned is not None:
            owned.shutdown()
