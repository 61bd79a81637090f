"""The serving layer: registry → factorization cache → session → scheduler.

This package turns the repository from "a sampler you call" into "a system
you serve traffic through":

::

    workload                         service layer                    engine
    --------                         -------------                    ------
    register(name, L)  ──▶  KernelRegistry ──▶ FactorizationCache
                                  │                  │  (eigh, PSD factor,
    serve(name/L)      ──▶  SamplerSession ◀─────────┘   size distribution, ...)
                                  │ sample(k, seed)   warm artifacts threaded
                                  │                   into dpp/* samplers
    submit()/drain()   ──▶  RoundScheduler ──▶ fused OracleBatch ──▶ backend

* :class:`~repro.service.registry.KernelRegistry` — register ensembles once,
  paying validation up front.
* :class:`~repro.service.cache.FactorizationCache` — content-fingerprinted,
  LRU-evicted memo of the expensive per-kernel preprocessing artifacts.
* :class:`~repro.service.session.SamplerSession` — ``repro.serve(L)`` handle
  whose repeated ``sample()`` calls skip preprocessing entirely while staying
  bit-identical to the cold-path samplers at fixed seeds.
* :class:`~repro.service.scheduler.RoundScheduler` — coalesces concurrently
  submitted requests against the same distribution into fused engine rounds,
  with per-request seeded substreams.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.engine import BackendLike
from repro.service.cache import CacheStats, FactorizationCache, KernelFactorization
from repro.service.registry import (
    KERNEL_KINDS,
    KernelRegistry,
    RegisteredKernel,
    kernel_fingerprint,
)
from repro.service.scheduler import RoundScheduler, SampleTicket
from repro.service.session import SamplerSession

__all__ = [
    "KERNEL_KINDS",
    "CacheStats",
    "FactorizationCache",
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
          cache: Optional[FactorizationCache] = None,
          backend: BackendLike = None,
          validate: bool = True) -> SamplerSession:
    """Open a warm :class:`SamplerSession` for a kernel.

    ``kernel`` is the name of an already registered kernel, a raw ensemble
    matrix, or a :class:`~repro.distributions.lowrank.LowRankKernel` — the
    matrix/factor is (idempotently) registered first — under ``name`` when
    given, else under a name derived from its content fingerprint and kind,
    so serving the same kernel twice reuses one registration and one cached
    factorization.  Low-rank kernels register their ``n x k`` factor (kind
    ``"lowrank"``), so every cached artifact stays ``k``-sized and sampling
    runs the sublinear intermediate sampler by default.

    Lifecycle: auto-named registrations are **ephemeral** — the session pins
    the entry while open, and once every session on it is closed the
    registry's ``anonymous_ttl`` reclaims the registration (so a long-running
    process churning through ``serve(matrix)`` kernels no longer accumulates
    them forever).  Close sessions explicitly (``session.close()`` or
    ``with repro.serve(L) as session: ...``); named/explicit registrations
    stay until ``unregister``.

    Examples
    --------
    >>> session = repro.serve(L)                     # doctest: +SKIP
    >>> session.sample(k=5, seed=123).subset         # doctest: +SKIP
    """
    reg = registry if registry is not None else _DEFAULT_REGISTRY
    ephemeral = False
    if isinstance(kernel, str):
        # acquire first: pins an ephemeral entry atomically with the lookup,
        # so a concurrent TTL sweep cannot reap it mid-serve
        entry = reg.acquire(kernel)
        ephemeral = reg.is_ephemeral(kernel)
        try:
            # registration-time arguments are meaningless for an existing
            # entry: reject mismatches instead of silently sampling a
            # different family
            if name is not None or parts is not None or counts is not None:
                raise ValueError(
                    "name=/parts=/counts= apply when registering a matrix; "
                    f"{kernel!r} is already registered"
                )
            if kind is not None and kind != entry.kind:
                raise ValueError(
                    f"kernel {kernel!r} is registered as kind={entry.kind!r}, not {kind!r}"
                )
        except ValueError:
            if ephemeral:
                reg.release(kernel)
            raise
    else:
        from repro.distributions.lowrank import LowRankKernel

        if isinstance(kernel, LowRankKernel):
            if kind not in (None, "lowrank"):
                raise ValueError(
                    f"a LowRankKernel serves as kind='lowrank', not {kind!r}")
            kind = "lowrank"
            matrix = kernel.factor
        else:
            kind = kind if kind is not None else "symmetric"
            matrix = np.asarray(kernel, dtype=float)
        ephemeral = name is None
        if name is None:
            from repro.utils.fingerprint import matrix_fingerprint

            # derive the name from content AND kind/structure so serving the
            # same matrix as e.g. symmetric and nonsymmetric registers two
            # kernels instead of colliding on one auto-generated name
            params = (tuple(tuple(sorted(int(i) for i in part)) for part in parts)
                      if parts is not None else None,
                      tuple(int(c) for c in counts) if counts is not None else None)
            name = f"kernel-{matrix_fingerprint(matrix, kind=kind, params=params)[:12]}"
        # pin=True takes the session reference atomically with registration
        # (a separate acquire could lose to an anonymous_ttl=0 sweep)
        entry = reg.register(name, matrix, kind=kind, parts=parts, counts=counts,
                             validate=validate, ephemeral=ephemeral, pin=ephemeral)
    return SamplerSession(entry, cache if cache is not None else reg.cache,
                          backend=backend, registry=reg if ephemeral else None)
