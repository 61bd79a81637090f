"""The trace ring buffer: spans, round records and events.

A :class:`Tracer` keeps a bounded ring buffer of three kinds of record:

* ``type="span"`` — one completed span (:func:`repro.obs.end_span`): a
  name, a category (``request`` for a request; ``queue``, ``fused_round``,
  ``wire``, ``node_op``, ``worker_chunk`` and so on for its parts), the
  ``trace_id`` / ``span_id`` / ``parent_id`` of :mod:`repro.obs.context`,
  and optional **links** to spans of other requests (a fused engine round
  links back to every member's request span);
* ``type="round"`` — the one record of an executed engine round
  (:func:`repro.obs.record_round`): the measured ``wall_time`` and backend
  next to the PRAM ``work`` and ``oracle_calls`` charged inside the round.
  Inside a traced request it carries the same id fields as a span, so each
  request is one connected tree;
* ``type="event"`` — a discrete event such as a scheduler drain or a
  cluster failover.

Records are plain dicts of JSON-serializable scalars so
``json.dumps(tracer.records())`` always works; numpy scalars are coerced at
record time.

Like the metrics registry, the tracer is gated by ``enabled`` and costs one
boolean check per record when off.  The ring buffer bounds memory for
long-running services: old records fall off the left, and ``dropped_spans``
counts every record lost that way so exports can surface the loss instead
of silently presenting a truncated history.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["Tracer"]


def _coerce(value: object) -> object:
    """Force a record field to a JSON-serializable scalar."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_coerce(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _coerce(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _coerce(item())
        except Exception:
            pass
    return str(value)


class Tracer:
    """Bounded, thread-safe buffer of spans, round records and events."""

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_records", "_seq", "_dropped")}

    def __init__(self, capacity: int = 1024, enabled: bool = False):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._records: "deque[Dict[str, object]]" = deque(maxlen=self.capacity)
        self._seq = 0
        self._dropped = 0

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_round(self, *, label: str, kind: str, family: str, backend: str,
                     queries: int, wall_time: float, work: float = 0.0,
                     oracle_calls: int = 0, **extra: object) -> None:
        """Record one executed engine round.

        ``label`` is the round label (e.g. ``"counting round"``), ``kind``
        the :class:`OracleBatch` kind, ``family`` the distribution family
        (class name), ``backend`` the executing backend's name, ``queries``
        the batch width, ``wall_time`` the measured seconds, and ``work`` /
        ``oracle_calls`` the PRAM charges made inside the round.
        """
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "type": "round",
            "label": _coerce(label),
            "kind": _coerce(kind),
            "family": _coerce(family),
            "backend": _coerce(backend),
            "queries": int(queries),
            "wall_time": float(wall_time),
            "work": float(work),
            "oracle_calls": int(oracle_calls),
            "monotonic": time.perf_counter(),
        }
        for field, value in extra.items():
            record[field] = _coerce(value)
        self._append(record)

    def event(self, category: str, **fields: object) -> None:
        """Record a discrete event (plan, drain, kernel update, failover...)."""
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "type": "event",
            "category": _coerce(category),
            "monotonic": time.perf_counter(),
        }
        for field, value in fields.items():
            record[field] = _coerce(value)
        self._append(record)

    def record_span(self, *, name: str, category: str,
                    trace_id: Optional[str] = None,
                    span_id: Optional[str] = None,
                    parent_id: Optional[str] = None,
                    start: Optional[float] = None,
                    duration: Optional[float] = None,
                    links: Optional[List[Dict[str, str]]] = None,
                    **attrs: object) -> None:
        """Record one completed request-scoped span.

        ``start`` is a ``perf_counter`` instant and ``duration`` seconds;
        ``links`` are ``{"trace_id": ..., "span_id": ...}`` references to
        spans in *other* requests (fused-round attribution).
        """
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "type": "span",
            "name": _coerce(name),
            "category": _coerce(category),
            "monotonic": time.perf_counter(),
        }
        if trace_id is not None:
            record["trace_id"] = str(trace_id)
        if span_id is not None:
            record["span_id"] = str(span_id)
        if parent_id is not None:
            record["parent_id"] = str(parent_id)
        if start is not None:
            record["start"] = float(start)
        if duration is not None:
            record["duration"] = float(duration)
        if links:
            record["links"] = [_coerce(dict(link)) for link in links]
        for field, value in attrs.items():
            record[field] = _coerce(value)
        self._append(record)

    def _append(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            if len(self._records) == self._records.maxlen:
                self._dropped += 1
            self._records.append(record)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def records(self) -> List[Dict[str, object]]:
        """All buffered records, oldest first."""
        with self._lock:
            return [dict(record) for record in self._records]

    def spans(self) -> List[Dict[str, object]]:
        """Only the per-round spans."""
        return [r for r in self.records() if r.get("type") == "round"]

    def request_spans(self) -> List[Dict[str, object]]:
        """Only the request-scoped spans (``type="span"``)."""
        return [r for r in self.records() if r.get("type") == "span"]

    def trace_tree(self, trace_id: str) -> List[Dict[str, object]]:
        """Every record belonging to one request's trace, oldest first."""
        return [r for r in self.records() if r.get("trace_id") == trace_id]

    @property
    def dropped_spans(self) -> int:
        """Records lost to ring-buffer overwrite since the last ``clear``."""
        with self._lock:
            return self._dropped

    def events(self, category: Optional[str] = None) -> List[Dict[str, object]]:
        """Only the discrete events, optionally filtered by category."""
        rows = [r for r in self.records() if r.get("type") == "event"]
        if category is not None:
            rows = [r for r in rows if r.get("category") == category]
        return rows

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
