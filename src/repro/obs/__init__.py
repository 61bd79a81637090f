"""``repro.obs`` — unified observability for the whole serving stack.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` and one
:class:`~repro.obs.trace.Tracer` back every instrumented layer:

* every engine round leaves one record (``repro_rounds_total``,
  ``repro_round_seconds``, a ``type="round"`` trace record);
* the planner records its routing decisions and predicted-vs-actual cost
  per estimated round;
* the scheduler reports fusion width, queue wait, and drain latency;
* the factorization caches and kernel registries re-export their existing
  counters through registry *collectors* (no double bookkeeping);
* cluster nodes time every wire op and clients count replica failovers.

**Spans.**  One span API covers requests and everything under them:
``span(name, category=...)`` scopes a block, and ``start_span`` /
``end_span`` open and close a span that outlives a block (a cluster
request queued by ``submit`` and finished by ``drain``).  A span with
``category="request"`` is a request; it opens when tracing or SLO tracking
is on.  A deterministic :class:`~repro.obs.context.TraceContext` ties the
spans of one request into a tree across the fused scheduler (span links
from each fused round back to every member's request span), cluster
protocol frames (optional ``trace`` field; shard nodes continue the
client's context) and process-pool worker chunks (``BatchPayload.trace``).
A request that continues no context is a **root**: its latency feeds an
:class:`~repro.obs.slo.SLOTracker` (streaming p50/p95/p99 per kernel
family, P² estimator; shard nodes add one stream per cluster op) once, and
a :class:`~repro.obs.slo.FlightRecorder` keeps the complete span tree of
any root slower than a configurable budget, exportable as Chrome
trace-event JSON (:mod:`repro.obs.export`).

**Rounds.**  :func:`record_round` is the one record of an engine round:
``ExecutionBackend.execute`` writes it once per round, with the measured
seconds and backend next to the PRAM work and oracle calls charged inside
the round.

Everything is **off by default** and costs one boolean check per hook when
off.  ``enable()`` / ``disable()`` flip metrics+tracing together;
``configure(slo=True)`` arms latency quantiles and
``configure(flight_budget=0.040)`` arms the flight recorder at 40 ms.

Export: :func:`snapshot` (JSON-serializable) and
:func:`render_prometheus` (Prometheus text exposition, scrapable from any
HTTP handler that serves the string), plus ``python -m repro.obs`` for
JSON/Prometheus/Chrome-trace dumps without writing code.

This module imports nothing from ``repro.engine`` / ``repro.service`` /
``repro.cluster`` — instrumented modules import *it* (lazily where needed),
never the other way around, so there are no import cycles.
"""

from __future__ import annotations

import contextlib
import threading
import time
import weakref
from typing import Dict, Iterator, List, Optional, Union

from repro.obs.context import (Span, TraceContext, activate, context_from_wire,
                               current_context, new_context, reset_ids)
from repro.obs.export import (chrome_trace, chrome_trace_events,
                              dump_chrome_trace)
from repro.obs.metrics import (CollectedMetric, Counter, Histogram,
                               MetricsRegistry, RATIO_BUCKETS, SIZE_BUCKETS,
                               TIME_BUCKETS)
from repro.obs.rollup import CACHE_TOTAL_KEYS, cluster_rollup, session_stats
from repro.obs.slo import FlightRecorder, SLOTracker
from repro.obs.trace import Tracer

__all__ = [
    "MetricsRegistry", "Tracer",
    "SLOTracker", "FlightRecorder", "TraceContext", "Span",
    "Counter", "Histogram", "CollectedMetric",
    "registry", "tracer", "slo", "flight_recorder",
    "enabled", "tracing", "enable", "disable", "configure", "reset",
    "snapshot", "render_prometheus",
    "chrome_trace", "chrome_trace_events", "dump_chrome_trace",
    "session_stats", "cluster_rollup", "CACHE_TOTAL_KEYS",
    "family_of",
    "current_context", "activate", "context_from_wire",
    "start_span", "end_span", "span", "round_context",
    "record_round", "record_plan", "observe_round_cost",
    "record_fusion", "record_queue_wait", "record_drain",
    "record_batch_counts",
    "record_cluster_op", "record_failover",
    "record_kernel_update", "record_update_delta",
    "register_cache", "register_kernel_registry",
]

_REGISTRY = MetricsRegistry(enabled=False)
_TRACER = Tracer(capacity=1024, enabled=False)
_SLO = SLOTracker(enabled=False)
_FLIGHT = FlightRecorder(capacity=16)

# --------------------------------------------------------------------- #
# metric catalog (eager: instruments are free until enabled)
# --------------------------------------------------------------------- #
_ROUNDS = _REGISTRY.counter(
    "repro_rounds_total", "Engine rounds executed", ("backend", "kind"))
_ROUND_SECONDS = _REGISTRY.histogram(
    "repro_round_seconds", "Wall time per engine round", ("backend", "kind"),
    TIME_BUCKETS)
_ROUND_QUERIES = _REGISTRY.histogram(
    "repro_round_queries", "Oracle queries per engine round", ("kind",),
    SIZE_BUCKETS)
_PLANNER_ROUNDS = _REGISTRY.counter(
    "repro_planner_rounds_total", "Rounds routed by the auto planner",
    ("chosen",))
_PLANNER_RATIO = _REGISTRY.histogram(
    "repro_planner_prediction_ratio",
    "Actual/predicted wall time of planner-routed rounds", ("backend",),
    RATIO_BUCKETS)
_SCHED_DRAINS = _REGISTRY.counter(
    "repro_scheduler_drains_total", "Scheduler drain calls")
_SCHED_FUSED = _REGISTRY.counter(
    "repro_scheduler_fused_rounds_total", "Fusion barriers flushed")
_SCHED_SUBMITTED = _REGISTRY.counter(
    "repro_scheduler_submitted_batches_total",
    "Per-request batches parked at the fusion barrier")
_SCHED_EXECUTED = _REGISTRY.counter(
    "repro_scheduler_executed_batches_total",
    "Fused batches actually executed")
_FUSION_WIDTH = _REGISTRY.histogram(
    "repro_scheduler_fusion_width", "Requests merged per fusion barrier", (),
    SIZE_BUCKETS)
_QUEUE_WAIT = _REGISTRY.histogram(
    "repro_scheduler_queue_wait_seconds",
    "Submit-to-execution latency of scheduled requests", (), TIME_BUCKETS)
_DRAIN_SECONDS = _REGISTRY.histogram(
    "repro_scheduler_drain_seconds", "Wall time per scheduler drain", (),
    TIME_BUCKETS)
_CLUSTER_OP_SECONDS = _REGISTRY.histogram(
    "repro_cluster_node_op_seconds", "Shard-node handler latency per op",
    ("op",), TIME_BUCKETS)
_CLUSTER_REQUESTS = _REGISTRY.counter(
    "repro_cluster_node_requests_total", "Shard-node requests handled",
    ("op",))
_CLUSTER_FAILOVERS = _REGISTRY.counter(
    "repro_cluster_client_failovers_total",
    "Client-side replica failovers")
_KERNEL_UPDATES = _REGISTRY.counter(
    "repro_kernel_updates_total",
    "Incremental kernel updates applied", ("kind", "decision"))
_UPDATE_DEPTH = _REGISTRY.histogram(
    "repro_kernel_update_depth",
    "Fingerprint-chain depth at each applied update", (), SIZE_BUCKETS)
_UPDATE_SECONDS = _REGISTRY.histogram(
    "repro_kernel_update_seconds",
    "Wall time per incremental update (patch or refactorization)",
    ("decision",), TIME_BUCKETS)
_UPDATE_DELTA_BYTES = _REGISTRY.histogram(
    "repro_cluster_update_delta_bytes",
    "Delta payload bytes shipped per cluster kernel update", (),
    SIZE_BUCKETS)

# --------------------------------------------------------------------- #
# singletons & switches
# --------------------------------------------------------------------- #
_SWITCH_LOCK = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-wide per-round tracer."""
    return _TRACER


def slo() -> SLOTracker:
    """The process-wide streaming SLO quantile tracker."""
    return _SLO


def flight_recorder() -> FlightRecorder:
    """The process-wide slow-request flight recorder."""
    return _FLIGHT


def enabled() -> bool:
    """Whether metrics collection is currently on."""
    return _REGISTRY.enabled


def tracing() -> bool:
    """Whether request/round tracing is currently on."""
    return _TRACER.enabled


#: sentinel distinguishing "leave the flight budget alone" from "disarm"
_UNSET = object()


def enable(*, trace: bool = True, slo: Optional[bool] = None,
           flight_budget: object = _UNSET) -> None:
    """Turn on metrics (and by default tracing); optionally arm SLO
    quantiles and the flight recorder."""
    configure(metrics=True, trace=trace, slo=slo, flight_budget=flight_budget)


def disable() -> None:
    """Turn off metrics, tracing, SLO, and the flight recorder."""
    configure(metrics=False, trace=False, slo=False, flight_budget=None)


def configure(*, metrics: Optional[bool] = None, trace: Optional[bool] = None,
              slo: Optional[bool] = None,
              flight_budget: object = _UNSET) -> Dict[str, object]:
    """Flip individual observability switches; ``None`` leaves one as-is.

    Returns the resulting switch state.  ``slo`` arms streaming request/op latency quantiles.  ``flight_budget``
    arms the flight recorder at a latency budget in seconds (``0.0``
    captures every traced request); pass ``None`` to disarm; leave unset to
    keep the current budget.
    """
    with _SWITCH_LOCK:
        if metrics is not None:
            _REGISTRY.enabled = bool(metrics)
        if trace is not None:
            _TRACER.enabled = bool(trace)
        if slo is not None:
            _SLO.enabled = bool(slo)
        if flight_budget is not _UNSET:
            if flight_budget is None:
                _FLIGHT.disarm()
            else:
                _FLIGHT.arm(float(flight_budget))  # type: ignore[arg-type]
        return {"metrics": _REGISTRY.enabled, "trace": _TRACER.enabled,
                "slo": _SLO.enabled, "flight_budget": _FLIGHT.budget}


def reset() -> None:
    """Zero all metric values, trace records, SLO state, flight captures,
    and the deterministic trace-id counter.

    Switches (including the flight budget) and registered
    instruments/collectors are left untouched.
    """
    _REGISTRY.reset()
    _TRACER.clear()
    _SLO.reset()
    _FLIGHT.clear()
    reset_ids()


def snapshot() -> Dict[str, object]:
    """One JSON-serializable dump of metrics + trace + SLO + flight state."""
    return {
        "metrics": _REGISTRY.snapshot(),
        "trace": {"enabled": _TRACER.enabled, "capacity": _TRACER.capacity,
                  "dropped_spans": _TRACER.dropped_spans,
                  "records": _TRACER.records()},
        "slo": _SLO.slo_state(),
        "flight": _FLIGHT.flight_state(),
    }


def render_prometheus() -> str:
    """The metrics registry in Prometheus text exposition format."""
    return _REGISTRY.render_prometheus()


# --------------------------------------------------------------------- #
# spans: one API for requests and everything under them
# --------------------------------------------------------------------- #
def _link_wire(link: Union[TraceContext, Dict[str, str]]) -> Dict[str, str]:
    if isinstance(link, TraceContext):
        return link.as_wire()
    return dict(link)


def start_span(name: str, *, category: str, family: Optional[str] = None,
               parent: Optional[TraceContext] = None,
               links: Optional[List[Union[TraceContext, Dict[str, str]]]] = None,
               start: Optional[float] = None,
               **attrs: object) -> Optional[Span]:
    """Open a span (``None`` when dark — every consumer of the return value
    must tolerate ``None``).

    The span is a child of ``parent`` when given, else of the ambient
    context from :func:`current_context`, else a fresh trace root.
    ``start`` overrides the start instant (``perf_counter`` clock) for
    spans whose work began before the span object could be created, e.g.
    queue waits measured from a ticket's ``submitted_at``.

    ``category="request"`` marks a request: it opens when tracing *or* SLO
    tracking is on (the SLO stream needs its start instant and its place in
    the tree even when no span is recorded), every other category only when
    tracing is on.  See :func:`end_span` for what a request root feeds.
    """
    if not (_TRACER.enabled or (_SLO.enabled and category == "request")):
        return None
    parent_context = parent if parent is not None else current_context()
    return Span(
        context=new_context(parent_context), name=name, category=category,
        start=time.perf_counter() if start is None else float(start),
        family=family,
        links=[_link_wire(link) for link in links] if links else None,
        attrs=dict(attrs))


def end_span(span: Optional[Span], *, end: Optional[float] = None,
             error: Optional[BaseException] = None, **attrs: object) -> None:
    """Record a completed span into the tracer (no-op for ``None``).

    ``error`` stamps the exception's class name as the span's ``error``
    field.  A request span that is a **root** — it continued no trace
    context, so no request encloses it, locally or across the wire — also
    feeds its family's SLO stream and, when armed and over budget, the
    flight recorder.  Nested requests (a scheduler ticket running
    ``session.sample``, a shard node serving a client frame) are never
    roots, so every request is observed exactly once.
    """
    if span is None:
        return
    finish = time.perf_counter() if end is None else float(end)
    duration = max(0.0, finish - span.start)
    fields = dict(span.attrs)
    fields.update(attrs)
    if error is not None:
        fields["error"] = type(error).__name__
    if span.family is not None:
        fields.setdefault("family", span.family)
    context = span.context
    _TRACER.record_span(
        name=span.name, category=span.category, trace_id=context.trace_id,
        span_id=context.span_id, parent_id=context.parent_id,
        start=span.start, duration=duration, links=span.links, **fields)
    if span.category != "request" or context.parent_id is not None:
        return
    if span.family is not None:
        _SLO.observe_request(span.family, duration)
    budget = _FLIGHT.budget
    if budget is not None and _TRACER.enabled and duration > budget:
        # after record_span, so the capture includes the root itself
        _FLIGHT.capture(
            trace_id=context.trace_id, root_span_id=context.span_id,
            name=span.name, family=span.family, duration=duration,
            records=_TRACER.trace_tree(context.trace_id))


@contextlib.contextmanager
def span(name: str, *, category: str, **kwargs: object) -> Iterator[Optional[Span]]:
    """:func:`start_span` + context activation + :func:`end_span` around a
    block; an exception escaping the block is stamped as the span's
    ``error``."""
    handle = start_span(name, category=category, **kwargs)  # type: ignore[arg-type]
    if handle is None:
        yield None
        return
    error: Optional[BaseException] = None
    try:
        with activate(handle.context):
            yield handle
    except BaseException as exc:
        error = exc
        raise
    finally:
        end_span(handle, error=error)


def round_context() -> Optional[TraceContext]:
    """A child context for an engine round about to execute.

    ``None`` unless tracing is on *and* the round runs inside a traced
    request — standalone rounds keep their flat (un-id'd) records.
    """
    if not _TRACER.enabled:
        return None
    parent = current_context()
    if parent is None:
        return None
    return parent.child()


# --------------------------------------------------------------------- #
# hot-path hooks (each starts with one boolean check when disabled)
# --------------------------------------------------------------------- #
def family_of(batch) -> str:
    """Distribution-family label of an OracleBatch (class name or 'matrix')."""
    distribution = getattr(batch, "distribution", None)
    if distribution is not None:
        return type(distribution).__name__
    return "matrix"


def record_round(batch, result, *, work: float = 0.0, oracle_calls: int = 0,
                 context: Optional[TraceContext] = None) -> None:
    """The one record of an executed engine round.

    :meth:`~repro.engine.backends.ExecutionBackend.execute` writes it once
    per round, with the PRAM ``work`` and ``oracle_calls`` charged inside
    the round next to the measured ``result.wall_time`` and backend.
    ``context`` — when the round ran inside a traced request — stamps the
    record with trace/span/parent ids so it joins the request tree (the
    round record *is* the round's span; no duplicate is emitted).
    """
    if not (_REGISTRY.enabled or _TRACER.enabled):
        return
    name = result.backend
    kind = batch.kind
    queries = int(result.n_queries)
    if _REGISTRY.enabled:
        _ROUNDS.inc(backend=name, kind=kind)
        _ROUND_SECONDS.observe(result.wall_time, backend=name, kind=kind)
        _ROUND_QUERIES.observe(float(queries), kind=kind)
    if _TRACER.enabled:
        ids: Dict[str, object] = {}
        if context is not None:
            ids["trace_id"] = context.trace_id
            ids["span_id"] = context.span_id
            if context.parent_id is not None:
                ids["parent_id"] = context.parent_id
        _TRACER.record_round(
            label=batch.label, kind=kind, family=family_of(batch),
            backend=name, queries=queries, wall_time=result.wall_time,
            work=work, oracle_calls=oracle_calls, **ids)


def record_plan(decision) -> None:
    """One auto-planner routing decision (a PlanDecision-shaped object)."""
    if _REGISTRY.enabled:
        _PLANNER_ROUNDS.inc(chosen=decision.chosen)
    if _TRACER.enabled:
        _TRACER.event("plan", kind=decision.kind, label=decision.label,
                      queries=decision.queries, chosen=decision.chosen,
                      reason=decision.reason,
                      estimates=dict(decision.estimates))


def observe_round_cost(backend: str, predicted_seconds: float,
                       actual_seconds: float) -> None:
    """Predicted-vs-actual for one planner-estimated round."""
    if _REGISTRY.enabled and predicted_seconds > 0 and actual_seconds >= 0:
        _PLANNER_RATIO.observe(actual_seconds / predicted_seconds,
                               backend=backend)


def record_fusion(width: int) -> None:
    """One fusion-barrier flush merging ``width`` parked requests."""
    if not _REGISTRY.enabled:
        return
    _SCHED_FUSED.inc()
    _FUSION_WIDTH.observe(float(width))


def record_queue_wait(seconds: float) -> None:
    if _REGISTRY.enabled:
        _QUEUE_WAIT.observe(seconds)


def record_drain(seconds: float, requests: int) -> None:
    """One completed scheduler drain of ``requests`` tickets."""
    if _REGISTRY.enabled:
        _SCHED_DRAINS.inc()
        _DRAIN_SECONDS.observe(seconds)
    if _TRACER.enabled:
        _TRACER.event("drain", seconds=seconds, requests=requests)


def record_batch_counts(submitted: int, executed: int) -> None:
    """Barrier-level batch accounting merged after one drain wave."""
    if not _REGISTRY.enabled:
        return
    if submitted:
        _SCHED_SUBMITTED.inc(submitted)
    if executed:
        _SCHED_EXECUTED.inc(executed)


def record_cluster_op(op: str, seconds: float) -> None:
    """One shard-node wire op handled in ``seconds``."""
    _SLO.observe_op(op, seconds)
    if not _REGISTRY.enabled:
        return
    _CLUSTER_REQUESTS.inc(op=op)
    _CLUSTER_OP_SECONDS.observe(seconds, op=op)


def record_kernel_update(kind: str, decision: str, depth: int,
                         seconds: Optional[float] = None) -> None:
    """One incremental kernel update applied by a registry/session.

    ``decision`` ∈ {patched, recomputed}: whether cached artifacts were
    carried over via the O(n·k)/O(n²) update identities, or rebuilt cold
    because the update chain reached the registry's rebuild depth (or the
    predecessor was evicted).
    """
    if _REGISTRY.enabled:
        _KERNEL_UPDATES.inc(kind=kind, decision=decision)
        _UPDATE_DEPTH.observe(float(depth))
        if seconds is not None:
            _UPDATE_SECONDS.observe(seconds, decision=decision)
    if _TRACER.enabled:
        _TRACER.event("kernel_update", kind=kind, decision=decision,
                      depth=depth, seconds=seconds)


def record_update_delta(nbytes: int) -> None:
    """Delta payload size of one cluster-shipped kernel update."""
    if _REGISTRY.enabled:
        _UPDATE_DELTA_BYTES.observe(float(nbytes))


def record_failover(fingerprint: Optional[str] = None) -> None:
    """One client-side replica failover."""
    if _REGISTRY.enabled:
        _CLUSTER_FAILOVERS.inc()
    if _TRACER.enabled:
        _TRACER.event("failover", fingerprint=fingerprint)


# --------------------------------------------------------------------- #
# collectors: re-export cache/registry counters without double bookkeeping
# --------------------------------------------------------------------- #
_CACHES: "weakref.WeakSet" = weakref.WeakSet()
_KERNEL_REGISTRIES: "weakref.WeakSet" = weakref.WeakSet()


def register_cache(cache) -> None:
    """Track a FactorizationCache for the summed cache collector (weakref)."""
    _CACHES.add(cache)


def register_kernel_registry(kernel_registry) -> None:
    """Track a KernelRegistry for the registration-census collector."""
    _KERNEL_REGISTRIES.add(kernel_registry)


def _collect_caches() -> List[CollectedMetric]:
    """Sum each live cache's ``stats.as_dict()`` counters (one series per
    CacheStats field, so the export cannot drift from the cache's schema)."""
    caches = list(_CACHES)
    if not caches:
        return []
    totals: Dict[str, int] = {}
    entries = 0
    for cache in caches:
        for key, value in cache.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
        entries += len(cache)
    rows = [
        CollectedMetric(
            name=f"repro_cache_{key}_total", kind="counter",
            help=f"Factorization-cache {key.replace('_', ' ')} (all caches)",
            samples=[({}, float(value))])
        for key, value in totals.items()
    ]
    rows.append(CollectedMetric(
        name="repro_cache_entries", kind="gauge",
        help="Resident factorization-cache entries (all caches)",
        samples=[({}, float(entries))]))
    return rows


def _collect_kernel_registries() -> List[CollectedMetric]:
    registries = list(_KERNEL_REGISTRIES)
    if not registries:
        return []
    registered = 0
    ephemeral = 0
    for kernel_registry in registries:
        census = kernel_registry.census()
        registered += census["registered"]
        ephemeral += census["ephemeral"]
    return [
        CollectedMetric(name="repro_registry_kernels", kind="gauge",
                        help="Registered kernels (all registries)",
                        samples=[({}, float(registered))]),
        CollectedMetric(name="repro_registry_ephemeral_kernels", kind="gauge",
                        help="Ephemeral registrations (all registries)",
                        samples=[({}, float(ephemeral))]),
    ]


def _collect_obs_internals() -> List[CollectedMetric]:
    """Tracer loss accounting, flight-recorder census, and SLO quantiles."""
    rows = [
        CollectedMetric(
            name="repro_tracer_dropped_spans_total", kind="counter",
            help="Trace records lost to ring-buffer overwrite",
            samples=[({}, float(_TRACER.dropped_spans))]),
        CollectedMetric(
            name="repro_flight_recorder_captures_total", kind="counter",
            help="Over-budget requests captured by the flight recorder",
            samples=[({}, float(_FLIGHT.captured_total))]),
    ]
    for name, kind, help_text, samples in _SLO.collect():
        rows.append(CollectedMetric(name=name, kind=kind, help=help_text,
                                    samples=samples))
    return rows


_REGISTRY.register_collector(_collect_caches)
_REGISTRY.register_collector(_collect_kernel_registries)
_REGISTRY.register_collector(_collect_obs_internals)
