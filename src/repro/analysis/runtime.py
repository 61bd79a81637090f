"""Dynamic enforcement: DebugLock, guarded-attribute descriptors, chaos.

The static R2 pass proves what it can see in one method body; this module
enforces the *same* ``_GUARDED_BY`` contract at runtime, where closures,
cross-object call chains and genuine thread interleavings live:

* :class:`DebugLock` wraps a ``threading.Lock``/``RLock`` and keeps a
  per-thread held-stack, asserting every new acquisition respects the
  global :data:`repro.analysis.lockorder.LOCK_ORDER` ranking — a runtime
  deadlock detector that fires on the *potential* inversion, not the hang;
* :func:`guard_instance` rewrites one live object so each declared guarded
  attribute becomes a data descriptor that asserts its lock is held by the
  current thread on every read/write — the lint rule, but executed;
* :class:`ChaosScheduler` is a seeded interleaving randomizer: hooked into
  every ``DebugLock.acquire`` (and callable from test code), it inserts
  probabilistic tiny sleeps and shrinks the interpreter switch interval so
  200 seeds explore 200 different schedules, reproducibly.

Violations either raise ``AssertionError`` immediately (default) or append
:class:`RaceViolation` records to a caller-supplied collector list, which
lets a stress test drain all threads first and fail with the full picture.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.analysis.lockorder import lock_rank

__all__ = ["ChaosScheduler", "DebugLock", "RaceViolation", "guard_instance",
           "merged_guarded_by"]

_held = threading.local()


def _held_stack() -> List["DebugLock"]:
    stack: Optional[List["DebugLock"]] = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


@dataclass
class RaceViolation:
    """One runtime contract breach observed by the harness."""

    kind: str  # "lock-order" | "unguarded-access"
    detail: str
    thread: str

    def render(self) -> str:
        return f"[{self.kind}] {self.detail} (thread {self.thread})"


class ChaosScheduler:
    """Seeded thread-interleaving randomizer (reproducible chaos).

    ``random.Random(seed)`` is a deliberate, seeded instance — exactly the
    exception R1 carves out — because the schedule perturbation must be
    reproducible per seed while staying independent of the numpy streams
    that produce samples.  Use as a context manager to also shrink the
    interpreter switch interval for the duration of a stress run.
    """

    def __init__(self, seed: int, *, switch_probability: float = 0.25,
                 max_sleep: float = 2e-4, switch_interval: float = 1e-5) -> None:
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self.seed = seed
        self.switch_probability = switch_probability
        self.max_sleep = max_sleep
        self.switch_interval = switch_interval
        self.switches = 0
        self._saved_interval: Optional[float] = None

    def maybe_switch(self) -> None:
        """Probabilistically yield/sleep to force a schedule perturbation."""
        with self._rng_lock:
            roll = self._rng.random()
            delay = self._rng.random() * self.max_sleep
            fire = roll < self.switch_probability
            if fire:
                self.switches += 1
        if fire:
            time.sleep(delay)

    def __enter__(self) -> "ChaosScheduler":
        self._saved_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.switch_interval)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._saved_interval is not None:
            sys.setswitchinterval(self._saved_interval)
            self._saved_interval = None


class DebugLock:
    """Lock wrapper asserting rank order against the global registry.

    Duck-types ``threading.Lock``/``RLock`` (``acquire``/``release``/context
    manager) so it can be swapped into an instance's ``_lock`` slot without
    the instance noticing.  Reentrant acquisitions of a wrapped RLock skip
    the order check (re-acquiring a held lock is never an inversion).
    """

    def __init__(self, inner: Any, *, owner: str = "", attr: str = "_lock",
                 collector: Optional[List[RaceViolation]] = None,
                 chaos: Optional[ChaosScheduler] = None) -> None:
        self._inner = inner
        self.owner = owner
        self.attr = attr
        self.rank = lock_rank(owner, attr)
        self._collector = collector
        self._chaos = chaos

    # -- violation plumbing ------------------------------------------- #
    def report(self, kind: str, detail: str) -> None:
        violation = RaceViolation(kind=kind, detail=detail,
                                  thread=threading.current_thread().name)
        if self._collector is not None:
            self._collector.append(violation)
        else:
            raise AssertionError(violation.render())

    def held_by_current_thread(self) -> bool:
        return any(entry is self for entry in _held_stack())

    # -- lock protocol -------------------------------------------------- #
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self._chaos is not None:
            self._chaos.maybe_switch()
        stack = _held_stack()
        if self.rank is not None and not self.held_by_current_thread():
            for held in stack:
                if held is not self and held.rank is not None and held.rank > self.rank:
                    self.report(
                        "lock-order",
                        f"acquiring {self.owner}.{self.attr} (rank {self.rank}) "
                        f"while holding {held.owner}.{held.attr} "
                        f"(rank {held.rank}): inversion against "
                        "repro.analysis.lockorder.LOCK_ORDER")
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return bool(acquired)

    def release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def merged_guarded_by(cls: Type[Any]) -> Dict[str, Tuple[str, ...]]:
    """Effective ``_GUARDED_BY`` of ``cls``, merged over its full MRO."""
    merged: Dict[str, Tuple[str, ...]] = {}
    for klass in reversed(cls.__mro__):
        declared = klass.__dict__.get("_GUARDED_BY")
        if isinstance(declared, dict):
            for lock_attr, attrs in declared.items():
                merged[str(lock_attr)] = tuple(str(a) for a in attrs)
    return merged


class _GuardedAttribute:
    """Data descriptor asserting the guarding lock is held on every access.

    Values continue to live in the instance ``__dict__``; the descriptor
    (installed on a dynamic subclass) shadows them for get/set/delete, so
    construction-time state survives the class swap untouched.
    """

    def __init__(self, name: str, lock_attr: str) -> None:
        self.name = name
        self.lock_attr = lock_attr

    def _check(self, obj: Any) -> None:
        lock = obj.__dict__.get(self.lock_attr)
        if isinstance(lock, DebugLock) and not lock.held_by_current_thread():
            lock.report(
                "unguarded-access",
                f"{lock.owner}.{self.name} accessed without holding "
                f"{self.lock_attr} (declared in _GUARDED_BY)")

    def __get__(self, obj: Any, objtype: Optional[Type[Any]] = None) -> Any:
        if obj is None:
            return self
        self._check(obj)
        try:
            return obj.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None

    def __set__(self, obj: Any, value: Any) -> None:
        self._check(obj)
        obj.__dict__[self.name] = value

    def __delete__(self, obj: Any) -> None:
        self._check(obj)
        del obj.__dict__[self.name]


def guard_instance(obj: Any, *,
                   collector: Optional[List[RaceViolation]] = None,
                   chaos: Optional[ChaosScheduler] = None) -> Any:
    """Turn one live object's ``_GUARDED_BY`` declaration into runtime checks.

    Swaps each declared lock for a :class:`DebugLock` and the object's class
    for a dynamic subclass whose guarded attributes are
    :class:`_GuardedAttribute` descriptors.  Call after construction (the
    ``__init__`` exemption the static rule grants is realized by guarding
    only finished instances).  Returns ``obj``.
    """
    cls = type(obj)
    guarded = merged_guarded_by(cls)
    if not guarded:
        raise ValueError(f"{cls.__name__} declares no _GUARDED_BY protocol")
    namespace: Dict[str, Any] = {}
    for lock_attr, attrs in guarded.items():
        inner = obj.__dict__.get(lock_attr)
        if inner is None:
            continue
        if not isinstance(inner, DebugLock):
            obj.__dict__[lock_attr] = DebugLock(
                inner, owner=cls.__name__, attr=lock_attr,
                collector=collector, chaos=chaos)
        for attr in attrs:
            namespace[attr] = _GuardedAttribute(attr, lock_attr)
    obj.__class__ = type("Guarded" + cls.__name__, (cls,), namespace)
    return obj
