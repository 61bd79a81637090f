"""Shared-memory array transport for the process execution backend.

The :class:`~repro.engine.backends.ProcessPoolBackend` answers one adaptive
round's oracle queries in worker *processes*.  Shipping the kernel/ensemble
matrices with every round would serialize hundreds of kilobytes per batch, so
this module places each distinct array in :mod:`multiprocessing.shared_memory`
**once** and ships only a tiny :class:`ArrayRef` (segment name + shape + dtype
+ content fingerprint).  Both sides cache by fingerprint:

* the parent's :class:`SharedArrayStore` publishes each distinct array once
  (LRU over segments; evicted segments are unlinked), so repeated rounds
  against the same kernel ship only query indices;
* each worker keeps a per-process attach cache
  (:func:`attach_shared_array`), so a kernel is mapped once per worker no
  matter how many chunks it answers.

Spawn-method caveat: refs are resolved by *name* through the filesystem
(``/dev/shm`` on Linux), so they work under any start method, including the
default (and safest) ``spawn``.  Ownership is asymmetric: workers only ever
``close()`` their attachments — the parent store is the single place that
``unlink()``s, on eviction and at :meth:`SharedArrayStore.close` (hooked into
:mod:`atexit` by the process backend).  Spawned pool workers share the
parent's ``resource_tracker`` process, so this single-unlink discipline keeps
its registration bookkeeping balanced — no spurious leak warnings on
3.10–3.12.

When shared memory is unavailable (``/dev/shm`` mounted ``noexec``/missing,
seccomp denials in sandboxes, ...), :func:`shared_memory_available` reports it
and the process backend falls back to the vectorized backend instead of
failing mid-round.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.fingerprint import array_fingerprint

__all__ = [
    "ArrayRef",
    "SharedArrayStore",
    "attach_shared_array",
    "release_worker_caches",
    "shared_memory_available",
]


@dataclass(frozen=True)
class ArrayRef:
    """Picklable handle to one published array.

    ``name`` addresses a shared-memory segment; ``fingerprint`` is the
    content key both sides cache by.  When ``name`` is ``None`` the array
    travels inline in ``data`` (the pickle-only transport used by the
    payload round-trip contract and by tests).
    """

    shape: Tuple[int, ...]
    dtype: str
    fingerprint: str
    name: Optional[str] = None
    data: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


def _probe_shared_memory() -> bool:
    try:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=8)
        try:
            segment.close()
        finally:
            segment.unlink()
        return True
    except Exception:
        return False


_SHM_AVAILABLE: Optional[bool] = None
_SHM_PROBE_LOCK = threading.Lock()


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works here (probed once)."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        with _SHM_PROBE_LOCK:
            if _SHM_AVAILABLE is None:
                _SHM_AVAILABLE = _probe_shared_memory()
    return _SHM_AVAILABLE


class SharedArrayStore:
    """Parent-side publisher: content-fingerprinted arrays → shm segments.

    ``capacity`` bounds live segments (LRU; eviction unlinks).  The store is
    thread-safe — concurrent sessions fusing rounds through one process
    backend publish through the same store.
    """

    #: concurrency contract, enforced by ``repro.analysis`` (R2 + race harness)
    _GUARDED_BY = {"_lock": ("_segments",)}

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._segments: "OrderedDict[str, Tuple[object, ArrayRef]]" = OrderedDict()

    def publish(self, array: np.ndarray) -> ArrayRef:
        """Place ``array`` in shared memory (once per content) and return its ref."""
        from multiprocessing import shared_memory

        a = np.ascontiguousarray(array)
        fingerprint = array_fingerprint(a)
        with self._lock:
            cached = self._segments.get(fingerprint)
            if cached is not None:
                self._segments.move_to_end(fingerprint)
                return cached[1]
        segment = shared_memory.SharedMemory(create=True, size=max(a.nbytes, 1))
        np.ndarray(a.shape, dtype=a.dtype, buffer=segment.buf)[...] = a
        ref = ArrayRef(shape=tuple(a.shape), dtype=str(a.dtype),
                       fingerprint=fingerprint, name=segment.name)
        evicted = []
        with self._lock:
            raced = self._segments.get(fingerprint)
            if raced is not None:  # another thread published the same content
                self._segments.move_to_end(fingerprint)
                evicted.append(segment)
                ref = raced[1]
            else:
                self._segments[fingerprint] = (segment, ref)
                while len(self._segments) > self.capacity:
                    _, (old_segment, _old_ref) = self._segments.popitem(last=False)
                    evicted.append(old_segment)
        for seg in evicted:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        return ref

    def close(self) -> None:
        """Unlink every live segment (idempotent)."""
        with self._lock:
            segments = [seg for seg, _ in self._segments.values()]
            self._segments.clear()
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def nbytes(self) -> int:
        """Total bytes of live published segments."""
        with self._lock:
            return sum(ref.nbytes for _, ref in self._segments.values())


# ---------------------------------------------------------------------- #
# worker side: per-process attach cache
# ---------------------------------------------------------------------- #
_ATTACH_CAPACITY = 32
_attached: "OrderedDict[str, Tuple[object, np.ndarray]]" = OrderedDict()


def _drop_attachment(segment) -> None:
    """Forget a cached attachment WITHOUT unmapping it.

    Views into the segment may still be referenced by worker-cached
    distributions; calling ``segment.close()`` would unmap memory under
    them and crash the worker on next use.  The segment's finalizer closes
    it too, so the segment lets go of its buffer and mapping here: the views
    keep the mapping alive through the buffer, and the garbage collector
    frees it with the last of them.  Only the (duplicated) descriptor is
    released eagerly so cache churn cannot exhaust fds.
    """
    fd = getattr(segment, "_fd", -1)
    if isinstance(fd, int) and fd >= 0:
        try:
            os.close(fd)
            segment._fd = -1
        except OSError:  # pragma: no cover - already closed elsewhere
            pass
    segment._buf = None
    segment._mmap = None


def attach_shared_array(ref: ArrayRef) -> np.ndarray:
    """Resolve ``ref`` to a read-only array, caching attachments by fingerprint.

    Inline refs (``name is None``) pass their payload through; shm refs are
    mapped once per process — subsequent batches against the same kernel cost
    a dictionary lookup, not a segment attach.
    """
    if not isinstance(ref, ArrayRef):
        return np.asarray(ref)  # identity transport: the token is the array
    if ref.name is None:
        if ref.data is None:
            raise ValueError("inline ArrayRef carries no data")
        return np.asarray(ref.data)
    cached = _attached.get(ref.fingerprint)
    if cached is not None:
        _attached.move_to_end(ref.fingerprint)
        return cached[1]
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=ref.name)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
    view.flags.writeable = False
    _attached[ref.fingerprint] = (segment, view)
    while len(_attached) > _ATTACH_CAPACITY:
        old_segment, _old_view = _attached.popitem(last=False)[1]
        _drop_attachment(old_segment)
    return view


def release_worker_caches() -> None:
    """Forget every cached attachment (worker shutdown / tests).

    Mappings are left for the garbage collector for the same
    use-after-unmap reason as LRU eviction (see :func:`_drop_attachment`).
    """
    while _attached:
        segment, _view = _attached.popitem(last=False)[1]
        _drop_attachment(segment)
