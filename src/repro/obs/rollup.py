"""Shared stat-rollup helpers: the one place serving schemas are defined.

Before this module, ``SamplerSession.stats`` and the two ``cluster_info()``
implementations (``cluster/client.py`` and ``cluster/local.py``) each built
their dicts by hand, so the schemas could drift apart silently.  The
builders now live here, with the schema documented as **stable**: keys may
be *added* in later PRs, and existing keys keep their names, types, and
meaning for as long as the mechanism they count exists; the keys of a
deleted mechanism go with it (the cache's byte-budget and idle-TTL counters
went with those two bounds).  Everything returned is
``json.dumps``-serializable.

Session stats schema (``session_stats``)::

    {
      "kernel": str,                  # registered kernel name
      "kind": str,                    # symmetric | nonsymmetric | partition | lowrank
      "n": int,                       # ground-set size
      "samples_served": int,
      "cache": {                      # FactorizationCache counters (CacheStats.as_dict)
        "hits": int, "misses": int, "evictions": int, "invalidations": int,
        "update_patched": int, "update_recomputed": int,
      },
      "cached_artifacts_bytes": int,
      "scheduler": {...},             # present only once a RoundScheduler exists
    }

Cluster rollup schema (``cluster_rollup``)::

    {
      "nodes": {node_id: node_stats_or_unreachable, ...},
      "alive": int,                   # nodes that answered the stats op
      "ring": {"nodes": [str], "vnodes": int, "replication": int},
      "registered": int,              # kernels in the client catalog
      "samples_served": int,          # summed over reachable nodes
      "failovers": int,               # client-side replica failovers
      "cache": {                      # summed node cache counters
        "hits": int, "misses": int, "evictions": int, "invalidations": int,
        "update_patched": int, "update_recomputed": int,
        "entries": int, "nbytes": int,
      },
    }

An unreachable node appears as ``{"unreachable": "<error>"}`` under its id
and contributes nothing to the totals.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

__all__ = ["CACHE_TOTAL_KEYS", "session_stats", "cluster_rollup"]

#: node cache counters summed ring-wide by :func:`cluster_rollup`: the six
#: ``CacheStats`` fields, then the occupancy keys of ``cache_info()``
CACHE_TOTAL_KEYS = ("hits", "misses", "evictions", "invalidations",
                    "update_patched", "update_recomputed", "entries", "nbytes")


def session_stats(session) -> Dict[str, object]:
    """Build the stable ``SamplerSession.stats`` dict (schema above)."""
    # samples_served and the scheduler handle are guarded session state:
    # take them in one locked snapshot instead of reading the attributes
    samples_served, scheduler = session.serving_counters()
    info: Dict[str, object] = {
        "kernel": session.entry.name,
        "kind": session.entry.kind,
        "n": session.entry.n,
        "samples_served": samples_served,
        "cache": session.cache.stats.as_dict(),
        "cached_artifacts_bytes": session.cache.nbytes,
    }
    if scheduler is not None:
        info["scheduler"] = scheduler.stats
    return info


def cluster_rollup(nodes: Mapping[str, Mapping[str, object]], *,
                   ring_nodes: Iterable[str], vnodes: int, replication: int,
                   registered: int, failovers: int) -> Dict[str, object]:
    """Aggregate per-node stats into the stable ``cluster_info()`` dict.

    ``nodes`` maps node id to either the node's ``stats`` op response or an
    ``{"unreachable": reason}`` marker (the caller owns transport; this
    helper owns the schema and the arithmetic).
    """
    totals = {key: 0 for key in CACHE_TOTAL_KEYS}
    samples = 0
    alive = 0
    for stats in nodes.values():
        if "unreachable" in stats:
            continue
        alive += 1
        samples += int(stats.get("samples_served", 0))
        cache = stats.get("registry", {}).get("cache", {})
        for key in totals:
            totals[key] += int(cache.get(key, 0))
    return {
        "nodes": dict(nodes),
        "alive": alive,
        "ring": {"nodes": list(ring_nodes), "vnodes": int(vnodes),
                 "replication": int(replication)},
        "registered": int(registered),
        "samples_served": samples,
        "failovers": int(failovers),
        "cache": totals,
    }
