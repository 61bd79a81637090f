"""Process-wide metrics primitives: counters and histograms.

The :class:`MetricsRegistry` is the single store every instrumented layer
(engine backends, planner, scheduler, caches, cluster nodes) writes into.
Three design constraints drive the implementation:

* **near-zero overhead when disabled** — every instrument method starts with
  one attribute read (``registry.enabled``) and returns immediately when the
  registry is off, so the instrumented hot paths (one call per adaptive
  round) cost a function call and a boolean check;
* **thread-safety** — samplers, schedulers, and shard-node threads all write
  concurrently; each instrument guards its value table with one lock held
  only for the increment (no allocation inside the lock on the warm path);
* **two export surfaces from one store** — :meth:`MetricsRegistry.snapshot`
  (plain JSON-serializable dicts) and
  :meth:`MetricsRegistry.render_prometheus` (Prometheus text exposition
  format 0.0.4: ``# HELP``/``# TYPE`` headers, label escaping, cumulative
  histogram buckets with ``+Inf``, ``_sum``/``_count`` series).

Histograms use **fixed bucket boundaries** chosen at construction — never
adaptive — so series from different runs/processes are mergeable and the
Prometheus exposition is stable across scrapes.

Collectors (registered callables returning :class:`CollectedMetric` rows)
let long-lived objects that already keep their own counters — the
factorization caches, kernel registries — re-export that state through the
registry at snapshot/render time without double bookkeeping on their hot
paths.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "CollectedMetric",
    "MetricsRegistry",
    "TIME_BUCKETS",
    "SIZE_BUCKETS",
    "RATIO_BUCKETS",
]

#: latency buckets (seconds): 10 µs .. 30 s, roughly log-spaced
TIME_BUCKETS = (1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0)

#: cardinality buckets (queries per round, fusion widths, pool sizes)
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0)

#: dimensionless ratio buckets centred on 1.0 (predicted-vs-actual errors)
RATIO_BUCKETS = (1 / 64, 1 / 16, 1 / 4, 1 / 2, 1.0, 2.0, 4.0, 16.0, 64.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - defensive
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(labelnames: Sequence[str], labelvalues: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"'
                     for name, value in zip(labelnames, labelvalues))
    return "{" + inner + "}"


class _Instrument:
    """Shared plumbing: name/help/labels validation and the value table."""

    kind = "untyped"

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race
    #: harness); Counter/Histogram inherit this declaration
    _GUARDED_BY = {"_lock": ("_values",)}

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str]):
        self._registry = registry
        self.name = _check_name(name)
        self.help = str(help)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    # export hooks (overridden by Histogram) ---------------------------- #
    def _snapshot_values(self) -> List[Dict[str, object]]:
        with self._lock:
            items = list(self._values.items())
        return [{"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in items]

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            lines.append(f"{self.name}{_label_pairs(self.labelnames, key)} "
                         f"{_format_value(float(value))}")


class Counter(_Instrument):
    """A monotonically increasing total (``inc`` only)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._values.get(self._key(labels), 0.0))


class Histogram(_Instrument):
    """Fixed-boundary histogram (counts per bucket plus sum/count).

    ``buckets`` are the **upper bounds** of the finite buckets, strictly
    increasing; an implicit ``+Inf`` bucket always exists.  Exposition uses
    Prometheus' cumulative convention.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: Sequence[str], buckets: Sequence[float] = TIME_BUCKETS):
        super().__init__(registry, name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name!r} buckets must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        if not self._registry.enabled:
            return
        key = self._key(labels)
        v = float(value)
        slot = bisect_left(self.buckets, v)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0,
                         "count": 0}
                self._values[key] = state
            state["counts"][slot] += 1
            state["sum"] += v
            state["count"] += 1

    def value(self, **labels: object) -> Dict[str, object]:
        """The (non-cumulative) state for one label set; zeros when unseen."""
        key = self._key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0,
                        "count": 0}
            return {"counts": list(state["counts"]), "sum": state["sum"],
                    "count": state["count"]}

    def _snapshot_values(self) -> List[Dict[str, object]]:
        with self._lock:
            items = [(key, {"counts": list(state["counts"]), "sum": state["sum"],
                            "count": state["count"]})
                     for key, state in self._values.items()]
        return [{"labels": dict(zip(self.labelnames, key)),
                 "buckets": list(self.buckets), **state} for key, state in items]

    def _render(self, lines: List[str]) -> None:
        with self._lock:
            items = sorted((key, list(state["counts"]), state["sum"], state["count"])
                           for key, state in self._values.items())
        for key, counts, total, count in items:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                pairs = _label_pairs(self.labelnames + ("le",),
                                     key + (_format_value(bound),))
                lines.append(f"{self.name}_bucket{pairs} {cumulative}")
            cumulative += counts[-1]
            pairs = _label_pairs(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{pairs} {cumulative}")
            base = _label_pairs(self.labelnames, key)
            lines.append(f"{self.name}_sum{base} {_format_value(total)}")
            lines.append(f"{self.name}_count{base} {count}")


@dataclass
class CollectedMetric:
    """One metric contributed by a registered collector at export time.

    ``samples`` maps label dicts to values; ``kind`` is ``"counter"`` or
    ``"gauge"`` (collector-fed histograms are not supported — collectors
    re-export *existing* counters, they do not observe distributions).
    """

    name: str
    kind: str = "gauge"
    help: str = ""
    samples: List[Tuple[Dict[str, str], float]] = field(default_factory=list)


class MetricsRegistry:
    """The process-wide instrument store behind :mod:`repro.obs`.

    ``enabled`` gates every write; instruments can be created eagerly at
    import time without cost.  Instruments are get-or-create by name —
    asking twice with a consistent (kind, labelnames) signature returns the
    same object, a mismatch raises.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_instruments", "_collectors")}

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}
        self._collectors: List[Callable[[], Iterable[CollectedMetric]]] = []

    # ------------------------------------------------------------------ #
    # instrument construction
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}")
                return existing
            instrument = cls(self, name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = TIME_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    # ------------------------------------------------------------------ #
    # collectors
    # ------------------------------------------------------------------ #
    def register_collector(self, collector: Callable[[], Iterable[CollectedMetric]]) -> None:
        """Add a callable polled at snapshot/render time (idempotent)."""
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def _collected(self) -> List[CollectedMetric]:
        with self._lock:
            collectors = list(self._collectors)
        rows: List[CollectedMetric] = []
        for collector in collectors:
            try:
                rows.extend(collector())
            except Exception:  # a broken collector must never break export
                continue
        return rows

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every instrument and collector."""
        with self._lock:
            instruments = list(self._instruments.values())
        metrics: Dict[str, object] = {}
        for instrument in instruments:
            values = instrument._snapshot_values()
            if not values:
                continue
            metrics[instrument.name] = {"type": instrument.kind,
                                        "help": instrument.help,
                                        "values": values}
        for row in self._collected():
            metrics[row.name] = {
                "type": row.kind, "help": row.help,
                "values": [{"labels": dict(labels), "value": float(value)}
                           for labels, value in row.samples],
            }
        return {"enabled": self.enabled, "metrics": metrics}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the whole registry."""
        lines: List[str] = []
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            body: List[str] = []
            instrument._render(body)
            if not body:
                continue
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            lines.extend(body)
        for row in self._collected():
            if not row.samples:
                continue
            if row.help:
                lines.append(f"# HELP {row.name} {row.help}")
            lines.append(f"# TYPE {row.name} {row.kind}")
            for labels, value in row.samples:
                names = tuple(sorted(labels))
                pairs = _label_pairs(names, tuple(str(labels[n]) for n in names))
                lines.append(f"{row.name}{pairs} {_format_value(float(value))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every instrument (instruments and collectors survive)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.clear()
