"""Shard nodes: headless serving processes behind the hash ring.

A :class:`ShardNode` owns a *private* :class:`~repro.service.registry.KernelRegistry`
and :class:`~repro.service.cache.FactorizationCache` — the same stack
``repro.serve`` drives locally, hosted without any local sessions — and
answers a small dict-op protocol over length-prefixed pickle frames
(:mod:`repro.cluster.protocol`):

======== =============================================================
op       effect
======== =============================================================
ping     liveness probe
register register a kernel (validation + fingerprint happen node-side)
warm     precompute a kernel's factorization artifacts
sample   one draw through a node-side :class:`SamplerSession`
drain    a batch of draws fused node-side by a :class:`RoundScheduler`
update   apply an incremental kernel delta (rank-1 / row append / delete)
         to the node's replica — patching cached artifacts in place
stats    node census: sessions served + ``registry_info()`` rollup
catalog  ``name -> description`` of everything registered
export   full kernel payload (matrix + structure) for rebalance moves
unregister / flush / shutdown  lifecycle & maintenance
======== =============================================================

Because sampling happens entirely node-side with the ordinary service stack,
a fixed-seed draw on a shard is byte-identical to the same draw through a
single-process ``repro.serve`` session — the cluster layer changes *where*
preprocessing artifacts live, never what is sampled.  Nodes here run as
threads serving loopback sockets (one per test/benchmark process); the
protocol is process-agnostic, so the same class fronts a real multi-host
deployment by binding a routable address.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.cluster.protocol import ClusterError, NodeUnavailable, recv_frame, send_frame
from repro.engine import BackendLike
from repro.service.registry import KernelRegistry
from repro.service.session import SamplerSession

__all__ = ["ShardNode"]


class ShardNode:
    """One shard: a private registry/cache pair behind a socket server.

    Parameters
    ----------
    node_id:
        Stable identifier; the ring hashes it, so it must survive restarts
        for placement to survive restarts.
    backend:
        Execution backend node-side sessions sample with (``None`` — the
        planner default).
    host / port:
        Bind address; port ``0`` picks an ephemeral port (reported by
        :meth:`start`).
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_sessions", "_connections", "_stopped",
                             "_listener", "_accept_thread", "requests_served")}

    def __init__(self, node_id: str, *, backend: BackendLike = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.node_id = str(node_id)
        self.registry = KernelRegistry()
        self.backend = backend
        self.host = host
        self.port = int(port)
        self.address: Optional[Tuple[str, int]] = None
        self._lock = threading.RLock()
        self._sessions: Dict[str, SamplerSession] = {}
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._stopped = False
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    # server lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Bind and serve in a daemon thread; returns the bound address."""
        with self._lock:
            if self._listener is not None:
                return self.address
            listener = socket.create_server((self.host, self.port))
            self._listener = listener
            self._stopped = False
            self.address = listener.getsockname()[:2]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, args=(listener,),
                name=f"repro-shard-{self.node_id}", daemon=True)
            self._accept_thread.start()
            return self.address

    def stop(self) -> None:
        """Stop serving *abruptly*: close the listener and every live
        connection (in-flight clients see :class:`NodeUnavailable` — exactly
        the node-death signal the cluster client's failover handles).

        The accept thread is woken and joined, so a stopped node holds no
        thread of its own and its address refuses connections."""
        with self._lock:
            self._stopped = True
            listener, self._listener = self._listener, None
            accept_thread, self._accept_thread = self._accept_thread, None
            connections = list(self._connections)
            self._connections.clear()
        woken = False
        if listener is not None:
            woken = self._wake_accept(listener)
            try:
                listener.close()
            except OSError:  # pragma: no cover - best effort
                pass
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass
        if woken and accept_thread is not None \
                and accept_thread is not threading.current_thread():
            accept_thread.join()

    @staticmethod
    def _wake_accept(listener: socket.socket) -> bool:
        """Wake a thread blocked in ``listener.accept()``; False if nothing could.

        ``close()`` alone does not wake it: on Linux the blocked call keeps
        the socket listening, so the thread, and through it the node, lives
        on until some client connects.  ``shutdown`` wakes it there; where a
        listening socket refuses ``shutdown``, one throwaway connection
        does, and the accept loop drops it since the node is stopped.
        """
        try:
            listener.shutdown(socket.SHUT_RDWR)
            return True
        except OSError:
            pass
        try:
            socket.create_connection(listener.getsockname()[:2], timeout=1.0).close()
            return True
        except OSError:  # pragma: no cover - no platform known to get here
            return False

    @property
    def running(self) -> bool:
        with self._lock:
            return self._listener is not None

    def __enter__(self) -> "ShardNode":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _accept_loop(self, listener: socket.socket) -> None:
        # the listener is an argument, not re-read from self: a stop() racing
        # this thread's first instruction nulls self._listener, and accept()
        # on the captured (closed) socket raises the OSError handled below
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._lock:
                if self._stopped:
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name=f"repro-shard-{self.node_id}-conn",
                             daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except (NodeUnavailable, ClusterError, OSError, EOFError,
                        pickle.UnpicklingError):
                    return
                reply = self._reply(request)
                try:
                    send_frame(conn, reply)
                except OSError:
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def _reply(self, request: object) -> dict:
        try:
            value = self.handle(request)
            return {"ok": True, "value": value}
        except BaseException as exc:  # every remote failure must frame cleanly
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            try:
                pickle.dumps(exc)
                shipped: Optional[BaseException] = exc
            except Exception:
                shipped = None  # unpicklable exception: message-only
            return {"ok": False, "error": shipped,
                    "message": f"{self.node_id}: {detail}"}

    # ------------------------------------------------------------------ #
    # op dispatch (also the in-process entry point: no sockets required)
    # ------------------------------------------------------------------ #
    def handle(self, request: object):
        """Execute one request dict and return its value (raises on error).

        Frames may carry an optional ``trace`` field (see
        :mod:`repro.cluster.protocol`): the node then runs the op inside the
        client's trace context, under a server-side child span when tracing
        is on, so the wire hop and node-side execution land in the same
        trace tree.  The context is activated even when the node span is
        dark: a request served here continues the client's and is never a
        root, so SLO tracking counts it once, on the client.
        """
        if not isinstance(request, dict) or "op" not in request:
            raise ClusterError(f"malformed request: {request!r}")
        args = dict(request)
        op = args.pop("op")
        trace_context = obs.context_from_wire(args.pop("trace", None))
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ClusterError(f"unknown op {op!r}")
        with self._lock:
            self.requests_served += 1
        started = time.perf_counter()
        try:
            with obs.activate(trace_context), \
                    obs.span(f"node-{op}", category="node_op", node=self.node_id):
                return handler(**args)
        finally:
            obs.record_cluster_op(op, time.perf_counter() - started)

    def _session(self, name: str) -> SamplerSession:
        with self._lock:
            session = self._sessions.get(name)
            if session is None or session.closed:
                session = self.registry.session(name, backend=self.backend)
                self._sessions[name] = session
            return session

    # ------------------------------------------------------------------ #
    # ops
    # ------------------------------------------------------------------ #
    def _op_ping(self):
        return {"node": self.node_id, "pong": True}

    def _op_register(self, name: str, matrix: np.ndarray, kind: str = "symmetric",
                     parts=None, counts=None, warm: bool = False,
                     validate: bool = True):
        entry = self.registry.register(name, matrix, kind=kind, parts=parts,
                                       counts=counts, validate=validate)
        if warm:
            self._op_warm(name)
        return {**entry.describe(), "node": self.node_id}

    def _op_update(self, name: str, update, prev: Optional[str] = None):
        """Apply one kernel delta to this node's replica.

        ``prev`` is the client's view of the current chain tip; a replica
        whose chain has diverged (e.g. re-registered after a rebalance that
        collapsed the chain) refuses the delta instead of silently forking.
        The node's live session for the kernel adopts the new epoch, so
        queued/fused draws pick it up exactly like a local session would.
        """
        entry = self.registry.apply_update(name, update, expect_fingerprint=prev)
        with self._lock:
            session = self._sessions.get(name)
        if session is not None and not session.closed:
            session.adopt_entry(entry)
        decision = entry.update_log[-1].decision if entry.update_log else "patched"
        return {**entry.describe(), "decision": decision, "node": self.node_id}

    def _op_unregister(self, name: str):
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is not None:
            session.close()
        return self.registry.unregister(name)

    def _op_warm(self, name: str):
        self._session(name).warm()
        return True

    def _op_sample(self, name: str, k=None, seed=None, method=None,
                   delta: float = 1e-2):
        return self._session(name).sample(k, seed=seed, method=method, delta=delta)

    def _op_drain(self, name: str, requests: List[dict], seed=0):
        """Fused execution of many draws: the cluster's batch-sampling op.

        A fresh :class:`~repro.service.scheduler.RoundScheduler` per call
        keeps request indices deterministic for the caller (the cluster
        session seeds every request explicitly, so the scheduler's own
        substream assignment is only a fallback).
        """
        from repro.service.scheduler import RoundScheduler

        session = self._session(name)
        scheduler = RoundScheduler(session, backend=self.backend, seed=seed)
        for request in requests:
            # each queued request may carry its submitter's trace context;
            # the drain threads re-activate it so node-side span trees hang
            # off the client's per-request spans
            scheduler.submit(request.get("k"), seed=request.get("seed"),
                             method=request.get("method", "parallel"),
                             trace=obs.context_from_wire(request.get("trace")),
                             **request.get("kwargs", {}))
        return scheduler.drain()

    def _op_catalog(self):
        with self._lock:
            names = self.registry.names()
        catalog = {}
        for name in names:
            try:
                entry = self.registry.get(name)
            except KeyError:  # pragma: no cover - concurrent unregister
                continue
            catalog[name] = entry.describe()
        return catalog

    def _op_export(self, name: str):
        """Ship a kernel's full definition (for rebalance data movement)."""
        entry = self.registry.get(name)
        return {**entry.describe(), "matrix": np.asarray(entry.matrix),
                "parts": entry.parts, "counts": entry.counts}

    def _op_stats(self):
        with self._lock:
            sessions = list(self._sessions.values())
            requests = self.requests_served
        return {
            "node": self.node_id,
            "requests_served": requests,
            "samples_served": sum(s.serving_counters()[0] for s in sessions),
            "open_sessions": len(sessions),
            "registry": self.registry.registry_info(),
        }

    def _op_flush(self):
        """Drop warm state (the cache and the open sessions); registrations survive.

        Benchmarks use this to measure genuinely cold passes on a built
        cluster without re-registering kernels.
        """
        with self._lock:
            sessions, self._sessions = list(self._sessions.values()), {}
        for session in sessions:
            session.close()
        self.registry.cache.clear()
        return True

    def _op_shutdown(self):
        # reply frames before the socket dies: schedule the stop just after
        threading.Timer(0.05, self.stop).start()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardNode({self.node_id!r}, address={self.address})"
