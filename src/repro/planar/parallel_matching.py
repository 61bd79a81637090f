"""Theorem 11: parallel sampling of uniform perfect matchings of planar graphs.

The algorithm (Section 6):

1. find a planar separator ``S`` of size ``O(√n)`` whose removal leaves
   components of size at most ``2n/3``;
2. sequentially match the vertices of ``S`` from their exact conditional edge
   marginals (each step is one adaptive round of batched Kasteleyn counting
   queries) — also removing the partners, which may live in the components;
3. the remaining graph is a disjoint union of (smaller) planar graphs whose
   matchings are conditionally independent; recurse on them **in parallel**.

Depth recursion: ``D(n) = O(√n) + D(2n/3) = O(√n)``; work obeys
``P(n) = 2 P(2n/3) + poly(n) = O(poly(n))`` (proof of Theorem 11).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional

import numpy as np

from repro.core.result import SampleResult, SamplerReport
from repro.planar.graphs import PlanarGraph
from repro.planar.kasteleyn import log_count_perfect_matchings
from repro.planar.matching import _canonical_matching, _match_vertex
from repro.planar.separator import bfs_level_separator
from repro.pram.tracker import Tracker, current_tracker, use_tracker
from repro.utils.rng import SeedLike, as_generator, spawn_generators


def _sample_recursive(graph: PlanarGraph, rng: np.random.Generator, report: SamplerReport,
                      *, base_size: int) -> List[FrozenSet]:
    """Recursive separator sampler; runs inside the current tracker context."""
    tracker = current_tracker()
    matching: List[FrozenSet] = []
    current = graph

    if current.n == 0:
        return matching

    if current.n <= base_size:
        # Small base case: match every vertex sequentially (O(base_size) rounds).
        while current.n > 0:
            vertex = sorted(current.vertices(), key=repr)[0]
            partner, _ = _match_vertex(current, vertex, 0.0, rng, tracker)
            matching.append(frozenset((vertex, partner)))
            current = current.remove_vertices([vertex, partner])
        return matching

    separator, _ = bfs_level_separator(current)
    report.extra["max_separator"] = max(report.extra.get("max_separator", 0.0), float(len(separator)))

    # Step 2: match separator vertices sequentially, conditioning as we go.
    for vertex in sorted(separator, key=repr):
        if not current.has_vertex(vertex):
            continue  # already matched as a partner of an earlier separator vertex
        partner, _ = _match_vertex(current, vertex, 0.0, rng, tracker)
        matching.append(frozenset((vertex, partner)))
        current = current.remove_vertices([vertex, partner])

    if current.n == 0:
        return matching

    # Step 3: recurse on the connected components in parallel.
    components = current.connected_components()
    child_rngs = spawn_generators(rng, len(components))
    child_trackers: List[Tracker] = []
    for component, child_rng in zip(components, child_rngs):
        child = tracker.spawn()
        child_trackers.append(child)
        with use_tracker(child):
            matching.extend(_sample_recursive(component, child_rng, report, base_size=base_size))
    tracker.merge_parallel(child_trackers)
    return matching


def sample_planar_matching_parallel(graph: PlanarGraph, seed: SeedLike = None, *,
                                    tracker: Optional[Tracker] = None,
                                    base_size: int = 6) -> SampleResult:
    """Theorem 11: exact uniform perfect matching in ``Õ(√n)`` parallel depth.

    Parameters
    ----------
    graph:
        A planar graph with at least one perfect matching.
    base_size:
        Components of at most this many vertices are finished with the
        sequential sampler (the recursion's base case).
    """
    rng = as_generator(seed)
    trk = tracker if tracker is not None else Tracker()
    report = SamplerReport()
    if graph.n % 2 == 1:
        raise ValueError("graphs with an odd number of vertices have no perfect matching")

    with use_tracker(trk):
        if log_count_perfect_matchings(graph) == -math.inf:
            raise ValueError("graph has no perfect matching")
        edges = _sample_recursive(graph, rng, report, base_size=base_size)

    report.update_from_tracker(trk)
    return SampleResult(subset=_canonical_matching([tuple(e) for e in edges]), report=report)
