"""Content fingerprints for arrays and kernel parameters.

The serving layer (:mod:`repro.service`) memoizes expensive per-kernel
artifacts — eigendecompositions, PSD factors, size distributions — keyed by
*content*, not by object identity: two registrations of numerically equal
ensembles share one cache entry, and mutating a matrix (which callers should
not do, but can) produces a different key instead of silently stale results.

Fingerprints are SHA-256 digests over the raw array bytes together with shape
and dtype, plus any extra scalar parameters (``k``, partition structure, ...).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np


def array_fingerprint(*arrays: np.ndarray, extra: Iterable = ()) -> str:
    """Hex digest identifying the content of ``arrays`` (+ scalar ``extra``).

    Arrays are hashed as ``(dtype, shape, C-contiguous bytes)`` so equal
    content always maps to an equal fingerprint regardless of memory layout.
    """
    digest = hashlib.sha256()
    for array in arrays:
        a = np.ascontiguousarray(array)
        digest.update(str(a.dtype).encode())
        digest.update(repr(a.shape).encode())
        digest.update(a.tobytes())
    for item in extra:
        digest.update(b"|")
        digest.update(repr(item).encode())
    return digest.hexdigest()


def chain_fingerprint(previous: str, *arrays: np.ndarray,
                      extra: Iterable = ()) -> str:
    """Derived fingerprint of a kernel after one incremental update.

    Digests the *predecessor's* fingerprint together with the update's delta
    payload (arrays + scalar signature) — never the mutated matrix itself.
    That makes the chain computable by anyone holding the base fingerprint
    and the update log (e.g. a :class:`~repro.cluster.client.ClusterClient`
    shipping deltas), while still changing whenever content, update order,
    or update parameters change.  The ``"chain"`` tag keeps derived keys
    disjoint from content fingerprints of equal arrays.
    """
    return array_fingerprint(*arrays, extra=("chain", previous, *tuple(extra)))


def partition_keys(parts: Optional[Iterable] = None,
                   counts: Optional[Iterable] = None):
    """Canonical (hashable) forms of a partition kernel's structure.

    Part order and within-part element order do not change the distribution,
    so they must not change the fingerprint either — elements are sorted
    per part before hashing.
    """
    parts_key = (tuple(tuple(sorted(int(i) for i in part)) for part in parts)
                 if parts is not None else None)
    counts_key = tuple(int(c) for c in counts) if counts is not None else None
    return parts_key, counts_key


def kernel_fingerprint(matrix: np.ndarray, *, kind: str = "symmetric",
                       parts: Optional[Iterable] = None,
                       counts: Optional[Iterable] = None) -> str:
    """The registry/cluster content key of one kernel: matrix + structure.

    This single derivation is shared by
    :meth:`repro.service.registry.KernelRegistry.register` (which keys the
    factorization cache with it) and the cluster layer's
    :class:`~repro.cluster.ring.HashRing` routing (which must agree with the
    owning node's registry *before* talking to it) — two implementations
    drifting apart would silently break placement.
    """
    parts_key, counts_key = partition_keys(parts, counts)
    return array_fingerprint(np.asarray(matrix, dtype=float),
                             extra=(kind, parts_key, counts_key))
