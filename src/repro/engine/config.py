"""Backend selection: ``repro.configure_backend(...)`` and friends.

The process-wide default backend is set with :func:`configure_backend`;
:func:`use_backend` scopes an override to a ``with`` block (it is a
:mod:`contextvars` variable, so concurrent samplers can pin different
backends); every sampler also accepts ``backend=...`` per call, resolved by
:func:`resolve_backend` with precedence *call argument > context > global*.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from typing import Iterator, Optional, Union

from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)
from repro.engine.planner import AutoBackend

BackendLike = Union[str, ExecutionBackend, None]

#: registry of constructible backend names
BACKEND_REGISTRY = {
    "auto": AutoBackend,
    "serial": SerialBackend,
    "vectorized": VectorizedBackend,
    "threads": ThreadPoolBackend,
    "process": ProcessPoolBackend,
}

_context_backend: ContextVar[Optional[ExecutionBackend]] = ContextVar(
    "repro_current_backend", default=None
)

#: memo of name-constructed backends.  The pooled backends hold persistent
#: executors (threads) or worker processes + shared-memory segments
#: (process), so resolving ``backend="threads"`` per sampler call must reuse
#: one instance instead of building a fresh pool every round.
_constructed: dict = {}
_constructed_lock = threading.Lock()


def _construct(spec: BackendLike, **options) -> ExecutionBackend:
    if isinstance(spec, ExecutionBackend):
        if options:
            raise ValueError("options are only accepted together with a backend name")
        return spec
    if isinstance(spec, str):
        try:
            factory = BACKEND_REGISTRY[spec.lower()]
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; available: {sorted(set(BACKEND_REGISTRY))}"
            ) from None
        try:
            key = (factory, tuple(sorted(options.items())))
        except TypeError:  # unhashable option value: construct fresh
            return factory(**options)
        with _constructed_lock:
            backend = _constructed.get(key)
            if backend is None:
                backend = factory(**options)
                _constructed[key] = backend
            return backend
    raise TypeError(f"backend must be a name or ExecutionBackend, got {type(spec).__name__}")


#: the process-wide default: the planner routes every round on measured
#: round times (see :mod:`repro.engine.planner`); forcing a specific
#: backend via ``configure_backend``/``use_backend``/``backend=`` is always
#: honored and bypasses the planner entirely.  Built through the name memo
#: so ``resolve_backend("auto")`` and the default share ONE planner (one set
#: of measurements, one decision log).
_default_backend: ExecutionBackend = _construct("auto")


def configure_backend(backend: BackendLike = "auto", **options) -> ExecutionBackend:
    """Set the process-wide default execution backend.

    ``backend`` is a name (``"auto"`` — the measured planner and initial
    default — ``"serial"``, ``"vectorized"``, ``"threads"``, ``"process"``)
    or a ready :class:`ExecutionBackend` instance; ``options`` are forwarded
    to the named backend's constructor (e.g. ``max_workers`` for
    ``"threads"``).  Returns the installed backend.
    """
    global _default_backend
    _default_backend = _construct(backend, **options)
    return _default_backend


def current_backend() -> ExecutionBackend:
    """The backend samplers use when no per-call override is given."""
    scoped = _context_backend.get()
    return scoped if scoped is not None else _default_backend


def resolve_backend(spec: BackendLike = None) -> ExecutionBackend:
    """Resolve a per-call ``backend=`` argument (``None`` -> current backend)."""
    if spec is None:
        return current_backend()
    return _construct(spec)


@contextlib.contextmanager
def use_backend(backend: BackendLike, **options) -> Iterator[ExecutionBackend]:
    """Scope a backend override to a ``with`` block."""
    resolved = _construct(backend, **options)
    token = _context_backend.set(resolved)
    try:
        yield resolved
    finally:
        _context_backend.reset(token)
