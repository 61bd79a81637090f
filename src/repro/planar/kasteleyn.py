"""Kasteleyn / FKT counting oracle for perfect matchings of planar graphs.

[Kas67]: every planar graph admits a *Pfaffian orientation* — an orientation
of its edges such that every inner face of a planar embedding has an odd
number of edges oriented clockwise.  With such an orientation the number of
perfect matchings equals ``|Pf(A)| = sqrt(det(A))`` where ``A`` is the signed
skew-symmetric adjacency matrix.  Determinants are in ``NC`` [Csa75], so this
is the counting oracle Theorem 11 queries.

The orientation is constructed with the standard FKT procedure:

1. pick a spanning tree of the (connected) graph and orient its edges
   arbitrarily;
2. the non-tree edges are in bijection with the inner faces' independent cycle
   constraints: the face-adjacency graph on non-tree edges is a tree (the dual
   spanning tree); process it leaves-first, orienting each face's last free
   edge so the face has an odd number of edges agreeing with its traversal
   direction.

Counts are returned in log-space (grids beyond ~10x10 have astronomically many
matchings); :func:`count_perfect_matchings` exponentiates and rounds when the
count fits a float.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.planar.graphs import PlanarGraph
from repro.pram.tracker import current_tracker

Edge = Tuple[object, object]


def _canonical(u, v) -> FrozenSet:
    return frozenset((u, v))


def _faces_of_embedding(embedding: nx.PlanarEmbedding) -> List[List[Edge]]:
    """All faces as lists of directed half-edges ``(u, v)`` in traversal order."""
    visited = set()
    faces: List[List[Edge]] = []
    for u, v in embedding.edges():
        for start in ((u, v), (v, u)):
            if start in visited:
                continue
            face_vertices = embedding.traverse_face(*start, mark_half_edges=visited)
            # convert the vertex cycle into directed half-edges
            half_edges = [
                (face_vertices[i], face_vertices[(i + 1) % len(face_vertices)])
                for i in range(len(face_vertices))
            ]
            faces.append(half_edges)
    return faces


def pfaffian_orientation(graph: PlanarGraph) -> Dict[FrozenSet, Edge]:
    """FKT Pfaffian orientation of a connected planar graph.

    Returns a map ``frozenset({u, v}) -> (u, v)`` meaning the edge is oriented
    from ``u`` to ``v``.
    """
    g = graph.graph
    if g.number_of_nodes() == 0 or g.number_of_edges() == 0:
        return {}
    if not graph.is_connected():
        raise ValueError("pfaffian_orientation expects a connected graph")
    embedding = graph.embedding

    # 1. spanning tree, oriented arbitrarily (parent -> child)
    tree_edges = set()
    orientation: Dict[FrozenSet, Edge] = {}
    root = next(iter(g.nodes()))
    parent = {root: None}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v not in parent:
                parent[v] = u
                tree_edges.add(_canonical(u, v))
                orientation[_canonical(u, v)] = (u, v)
                queue.append(v)

    # 2. faces and the dual tree over non-tree edges
    faces = _faces_of_embedding(embedding)
    if len(faces) <= 1:
        # tree (no cycles): any orientation is Pfaffian
        return orientation

    edge_to_faces: Dict[FrozenSet, List[int]] = {}
    for face_idx, half_edges in enumerate(faces):
        for u, v in half_edges:
            edge_to_faces.setdefault(_canonical(u, v), []).append(face_idx)

    dual = nx.Graph()
    dual.add_nodes_from(range(len(faces)))
    for edge_key, face_list in edge_to_faces.items():
        if edge_key in tree_edges:
            continue
        if len(face_list) != 2:
            raise RuntimeError("non-tree edge does not border exactly two faces")
        dual.add_edge(face_list[0], face_list[1], graph_edge=edge_key)

    # Designate face 0 as the excluded (outer) face; the dual graph restricted
    # to non-tree edges is a spanning tree of the faces.
    excluded = 0
    order = list(nx.bfs_tree(dual, excluded).nodes())
    dual_parent = {excluded: None}
    for node in order:
        for neighbor in dual.neighbors(node):
            if neighbor not in dual_parent:
                dual_parent[neighbor] = node

    # 3. process faces farthest-from-root first, fixing the parent edge last
    for face_idx in reversed(order):
        if face_idx == excluded:
            continue
        parent_face = dual_parent[face_idx]
        free_edge = dual.edges[face_idx, parent_face]["graph_edge"]
        half_edges = faces[face_idx]
        # count already-oriented edges agreeing with the traversal direction
        agree = 0
        free_direction: Optional[Edge] = None
        for u, v in half_edges:
            key = _canonical(u, v)
            if key == free_edge:
                free_direction = (u, v)
                continue
            oriented = orientation.get(key)
            if oriented is None:
                raise RuntimeError("face has more than one unoriented edge during FKT sweep")
            if oriented == (u, v):
                agree += 1
        if free_direction is None:
            raise RuntimeError("free edge not found on its face boundary")
        if agree % 2 == 0:
            orientation[free_edge] = free_direction
        else:
            orientation[free_edge] = (free_direction[1], free_direction[0])
    return orientation


def _log_count_connected(graph: PlanarGraph) -> float:
    """Log of the number of perfect matchings of a connected planar graph."""
    n = graph.n
    if n == 0:
        return 0.0
    if n % 2 == 1:
        return -math.inf
    if graph.m == 0:
        return -math.inf
    orientation = pfaffian_orientation(graph)
    index = graph.adjacency_index()
    A = np.zeros((n, n))
    for edge_key, (u, v) in orientation.items():
        i, j = index[u], index[v]
        A[i, j] = 1.0
        A[j, i] = -1.0
    current_tracker().charge_determinant(n)
    sign, logdet = np.linalg.slogdet(A)
    if sign <= 0 and not math.isfinite(logdet):
        return -math.inf
    if logdet == -math.inf:
        return -math.inf
    # det(A) = Pf(A)^2 >= 0; numerical noise can flip the sign for singular A
    if sign < 0 and logdet > -20:
        raise RuntimeError("skew-symmetric determinant came out negative; orientation bug?")
    return 0.5 * logdet


def log_count_perfect_matchings(graph: PlanarGraph) -> float:
    """``log(#perfect matchings)`` of a planar graph (``-inf`` if none exist).

    Disconnected graphs factor over their components.
    """
    total = 0.0
    for component in graph.connected_components():
        value = _log_count_connected(component)
        if value == -math.inf:
            return -math.inf
        total += value
    return total


def count_perfect_matchings(graph: PlanarGraph) -> float:
    """Number of perfect matchings (rounded; use the log version for big graphs)."""
    log_count = log_count_perfect_matchings(graph)
    if log_count == -math.inf:
        return 0.0
    if log_count > 700:
        raise OverflowError("matching count overflows float; use log_count_perfect_matchings")
    return float(round(math.exp(log_count)))


def matching_edge_marginal(graph: PlanarGraph, u, v) -> float:
    """``P[(u, v) ∈ M]`` for a uniformly random perfect matching ``M``.

    Equals ``#PM(G - {u, v}) / #PM(G)``; both counts are Kasteleyn
    determinants (one batched round of two oracle calls).
    """
    if not graph.graph.has_edge(u, v):
        return 0.0
    log_total = log_count_perfect_matchings(graph)
    if log_total == -math.inf:
        raise ValueError("graph has no perfect matching")
    reduced = graph.remove_vertices([u, v])
    log_reduced = log_count_perfect_matchings(reduced)
    if log_reduced == -math.inf:
        return 0.0
    return float(math.exp(log_reduced - log_total))
