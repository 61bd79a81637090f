"""Sequential sampling of uniform perfect matchings (the Θ(n)-depth baseline).

The sampler repeatedly takes the smallest-labelled unmatched vertex ``v``,
computes the conditional probability that each incident edge is in the
matching via the Kasteleyn counting oracle
(``P[(v,u) ∈ M] = #PM(G - {v,u}) / #PM(G)``), samples one edge, removes both
endpoints, and repeats — ``n/2`` inherently sequential rounds.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.result import SampleResult, SamplerReport
from repro.planar.graphs import PlanarGraph
from repro.planar.kasteleyn import log_count_perfect_matchings
from repro.pram.tracker import Tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator

Matching = Tuple[FrozenSet, ...]


def _canonical_matching(edges: List[Tuple]) -> Matching:
    return tuple(sorted((frozenset(edge) for edge in edges), key=lambda e: sorted(map(repr, e))))


def enumerate_perfect_matchings(graph: PlanarGraph) -> List[Matching]:
    """Brute-force enumeration of all perfect matchings (small graphs / tests)."""
    vertices = sorted(graph.vertices(), key=repr)
    if len(vertices) % 2 == 1:
        return []
    adjacency = {v: set(graph.neighbors(v)) for v in vertices}

    results: List[Matching] = []

    def recurse(remaining: List, partial: List[Tuple]):
        if not remaining:
            results.append(_canonical_matching(partial))
            return
        v = remaining[0]
        rest = remaining[1:]
        for u in adjacency[v]:
            if u in rest:
                next_remaining = [w for w in rest if w != u]
                recurse(next_remaining, partial + [(v, u)])

    recurse(vertices, [])
    return results


def _match_vertex(graph: PlanarGraph, vertex, log_total: float, rng: np.random.Generator,
                  tracker: Tracker) -> Tuple[object, float]:
    """One sequential step: sample the partner of ``vertex`` from its conditional law.

    Returns ``(partner, log_count_of_reduced_graph)``.  The counting-oracle
    queries for all incident edges form one batched adaptive round.
    """
    neighbors = graph.neighbors(vertex)
    if not neighbors:
        raise ValueError(f"vertex {vertex!r} has no neighbors but a perfect matching was requested")
    log_counts = np.full(len(neighbors), -math.inf)
    with tracker.round("match-vertex"):
        tracker.charge(machines=float(len(neighbors)))
        for idx, u in enumerate(neighbors):
            reduced = graph.remove_vertices([vertex, u])
            log_counts[idx] = log_count_perfect_matchings(reduced)
    if np.all(np.isneginf(log_counts)):
        raise RuntimeError("no extension to a perfect matching exists; inconsistent conditioning")
    shift = np.max(log_counts[np.isfinite(log_counts)])
    weights = np.where(np.isfinite(log_counts), np.exp(log_counts - shift), 0.0)
    probs = weights / weights.sum()
    choice = int(rng.choice(len(neighbors), p=probs))
    return neighbors[choice], float(log_counts[choice])


def sample_planar_matching_sequential(graph: PlanarGraph, seed: SeedLike = None, *,
                                      tracker: Optional[Tracker] = None) -> SampleResult:
    """Exact uniform perfect matching via the sequential conditional sampler.

    The result's ``subset`` is a tuple of frozenset edges; the report records
    the ``Θ(n)`` adaptive rounds the sampler needed.
    """
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    report = SamplerReport()
    if graph.n % 2 == 1:
        raise ValueError("graphs with an odd number of vertices have no perfect matching")

    matching: List[FrozenSet] = []
    with use_tracker(trk):
        log_total = log_count_perfect_matchings(graph)
        if log_total == -math.inf:
            raise ValueError("graph has no perfect matching")
        current = graph
        while current.n > 0:
            vertex = sorted(current.vertices(), key=repr)[0]
            partner, _ = _match_vertex(current, vertex, log_total, rng, trk)
            matching.append(frozenset((vertex, partner)))
            current = current.remove_vertices([vertex, partner])
            report.batch_sizes.append(1)
    report.update_from_tracker(trk)
    return SampleResult(subset=_canonical_matching([tuple(e) for e in matching]), report=report)
