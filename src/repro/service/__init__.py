"""The serving layer: registry → factorization cache → session → scheduler.

This package turns the repository from "a sampler you call" into "a system
you serve traffic through":

::

    workload                         service layer                    engine
    --------                         -------------                    ------
    register(name, L)  ──▶  KernelRegistry ──▶ FactorizationCache
                                  │                  │  (eigh, PSD factor, Gram eigh,
    serve(name/L)      ──▶  SamplerSession ◀─────────┘   size distribution, and the
                                  │ sample(k, seed)     served distributions)
    submit()/drain()   ──▶  RoundScheduler ──▶ fused OracleBatch ──▶ backend

* :class:`~repro.service.registry.KernelRegistry` — register ensembles once,
  paying validation up front.
* :class:`~repro.service.cache.FactorizationCache` — content-fingerprinted,
  LRU-evicted memo of each kernel epoch: the expensive preprocessing
  artifacts and the served distributions built on them, one per ``k``.
* :class:`~repro.service.session.SamplerSession` — ``repro.serve(L)`` handle
  whose repeated ``sample()`` calls skip preprocessing entirely while staying
  bit-identical to the cold-path samplers at fixed seeds; it keeps no memo.
* :class:`~repro.service.scheduler.RoundScheduler` — coalesces concurrently
  submitted requests against the same distribution into fused engine rounds,
  with per-request seeded substreams.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine import BackendLike
from repro.service.cache import CacheStats, FactorizationCache, KernelFactorization
from repro.service.registry import (
    KERNEL_KINDS,
    KernelConflict,
    KernelRegistry,
    RegisteredKernel,
    _refuse_registration_args,
    kernel_fingerprint,
)
from repro.service.scheduler import RoundScheduler, SampleTicket
from repro.service.session import SamplerSession

__all__ = [
    "KERNEL_KINDS",
    "CacheStats",
    "FactorizationCache",
    "KernelConflict",
    "KernelFactorization",
    "KernelRegistry",
    "RegisteredKernel",
    "RoundScheduler",
    "SampleTicket",
    "SamplerSession",
    "default_registry",
    "kernel_fingerprint",
    "serve",
]

#: process-wide registry used by :func:`serve` when none is supplied
_DEFAULT_REGISTRY = KernelRegistry()


def default_registry() -> KernelRegistry:
    """The process-wide registry behind :func:`repro.serve`."""
    return _DEFAULT_REGISTRY


def serve(kernel, *, name: Optional[str] = None,
          kind: Optional[str] = None,
          parts: Optional[Sequence[Sequence[int]]] = None,
          counts: Optional[Sequence[int]] = None,
          registry: Optional[KernelRegistry] = None,
          backend: BackendLike = None,
          validate: bool = True) -> SamplerSession:
    """Open a warm :class:`SamplerSession` on a kernel of ``registry``.

    ``kernel`` is the name of an already registered kernel, a raw ensemble
    matrix, or a :class:`~repro.distributions.lowrank.LowRankKernel` — the
    matrix/factor is (idempotently) registered first — under ``name`` when
    given, else under the auto-name ``kernel-<fingerprint[:12]>`` of its
    content fingerprint and kind
    (:func:`~repro.service.registry.kernel_entry`), so serving the same
    kernel twice reuses one registration and one cached factorization.
    Low-rank kernels register their ``n x k`` factor (kind ``"lowrank"``),
    so every cached artifact stays ``k``-sized and sampling runs the
    sublinear intermediate sampler by default.  ``registry`` defaults to
    the process-wide :func:`default_registry`.

    The session belongs to the registry however it was opened: its updates
    go through :meth:`KernelRegistry.apply_update`, so a later
    ``serve(name)`` draws the updated kernel.  Auto-named registrations are
    **ephemeral** — the session pins the entry while open, and once every
    session on it is closed the registry's ``anonymous_ttl`` reclaims the
    registration (so a long-running process churning through
    ``serve(matrix)`` kernels does not accumulate them).  Close sessions
    explicitly (``session.close()`` or ``with repro.serve(L) as session:
    ...``); named registrations stay until ``unregister``.

    Examples
    --------
    >>> session = repro.serve(L)                     # doctest: +SKIP
    >>> session.sample(k=5, seed=123).subset         # doctest: +SKIP
    """
    reg = registry if registry is not None else _DEFAULT_REGISTRY
    if not isinstance(kernel, str):
        # ephemeral=True pins the auto-named entry atomically with its
        # registration; the session releases that pin on close
        try:
            entry = reg.register(name, kernel, kind=kind, parts=parts, counts=counts,
                                 validate=validate, ephemeral=name is None)
        except KernelConflict as exc:  # serve() takes no overwrite=
            raise KernelConflict(exc.name, exc.epoch, front="serve") from None
        return SamplerSession(reg, entry, backend=backend)
    _refuse_registration_args(kernel, reg.get(kernel).kind, name=name, kind=kind,
                              parts=parts, counts=counts)
    return reg.session(kernel, backend=backend)
