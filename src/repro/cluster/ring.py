"""Consistent hashing: content fingerprints → shard nodes.

The cluster layer routes every kernel by the same SHA-256 content
fingerprint the factorization cache is keyed on (:mod:`repro.utils.fingerprint`),
so "which node owns this kernel's artifacts" is a pure function of kernel
content and ring membership — no directory service, no per-key state.

:class:`HashRing` is the classic virtual-node construction: every node
projects ``vnodes`` points onto a 64-bit circle (SHA-256 of
``"{node_id}#{replica_index}"``), a key lands at the first point clockwise
from its own hash, and replication walks further clockwise collecting
*distinct* nodes.  Two properties matter for the cluster:

* **determinism** — positions depend only on node ids, so any client (or a
  re-constructed ring after a restart) computes the identical mapping, in any
  insertion order;
* **minimal movement** — adding one node to an ``N``-node ring re-assigns
  only the arcs the new node's points capture, ``≈ K/N`` of ``K`` keys in
  expectation (the rebalance bound ``benchmarks/bench_cluster.py`` gates on).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["HashRing"]

#: default virtual nodes per physical node; 64 keeps the arc-length spread
#: tight enough that a 3→4 node rebalance stays near the K/N expectation
DEFAULT_VNODES = 64


def _position(token: str) -> int:
    """64-bit ring position of an arbitrary string token."""
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over string node ids with virtual nodes.

    Not thread-safe by itself — the cluster client guards membership changes
    with its own lock; lookups on a stable ring are safe to share.
    """

    def __init__(self, nodes: Iterable[str] = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = int(vnodes)
        self._nodes: Dict[str, Tuple[int, ...]] = {}
        #: sorted (position, node_id) points; ties broken by node id so the
        #: mapping is deterministic even across (astronomically unlikely)
        #: position collisions
        self._points: List[Tuple[int, str]] = []
        for node_id in nodes:
            self.add_node(node_id)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: str) -> None:
        """Project ``node_id``'s virtual points onto the ring (idempotent)."""
        node_id = str(node_id)
        if node_id in self._nodes:
            return
        positions = tuple(_position(f"{node_id}#{i}") for i in range(self.vnodes))
        self._nodes[node_id] = positions
        for position in positions:
            bisect.insort(self._points, (position, node_id))

    def remove_node(self, node_id: str) -> None:
        """Remove ``node_id``'s points; unknown ids are a no-op."""
        node_id = str(node_id)
        if self._nodes.pop(node_id, None) is None:
            return
        self._points = [point for point in self._points if point[1] != node_id]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Member node ids, sorted."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return str(node_id) in self._nodes

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def nodes_for(self, key: str, count: int = 1) -> Tuple[str, ...]:
        """The ``count`` distinct owners of ``key``, primary first.

        Walks clockwise from the key's position collecting distinct node
        ids; asking for more replicas than there are nodes returns every
        node (primary-ordered), so ``replication > len(ring)`` degrades
        gracefully instead of failing.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if not self._points:
            raise RuntimeError("hash ring has no nodes")
        owners: List[str] = []
        start = bisect.bisect_right(self._points, (_position(str(key)), "￿"))
        for offset in range(len(self._points)):
            node_id = self._points[(start + offset) % len(self._points)][1]
            if node_id not in owners:
                owners.append(node_id)
                if len(owners) == count or len(owners) == len(self._nodes):
                    break
        return tuple(owners)

    def ownership(self, keys: Sequence[str], count: int = 1) -> Dict[str, Tuple[str, ...]]:
        """``key -> owners`` for many keys (rebalance planning helper)."""
        return {str(key): self.nodes_for(key, count) for key in keys}

    @staticmethod
    def moved_keys(before: Dict[str, Tuple[str, ...]],
                   after: Dict[str, Tuple[str, ...]]) -> List[str]:
        """Keys whose owner set gained at least one node between two maps.

        This is the set that requires data movement on a membership change —
        dropping an owner is free (the artifacts just become garbage), only
        a *new* owner needs the kernel copied in.
        """
        moved = []
        for key, owners in after.items():
            previous = set(before.get(key, ()))
            if any(node not in previous for node in owners):
                moved.append(key)
        return moved
