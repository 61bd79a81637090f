"""Planar graph wrapper and workload generators.

:class:`PlanarGraph` is a thin immutable-ish wrapper around
:class:`networkx.Graph` that caches the planarity check, exposes the vertex/
edge views the samplers need, and supports vertex deletion (returning a new
graph) and connected-component decomposition — the two operations the
separator recursion of Theorem 11 performs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.utils.rng import SeedLike, as_generator


class PlanarGraph:
    """A planar graph with hashable vertex labels."""

    def __init__(self, graph: nx.Graph, *, check_planarity: bool = True):
        if graph.number_of_selfloops() if hasattr(graph, "number_of_selfloops") else nx.number_of_selfloops(graph):
            raise ValueError("self-loops are not supported")
        self._graph = nx.Graph(graph)
        self._embedding: Optional[nx.PlanarEmbedding] = None
        if check_planarity:
            is_planar, embedding = nx.check_planarity(self._graph)
            if not is_planar:
                raise ValueError("graph is not planar")
            self._embedding = embedding

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def embedding(self) -> nx.PlanarEmbedding:
        if self._embedding is None:
            is_planar, embedding = nx.check_planarity(self._graph)
            if not is_planar:
                raise ValueError("graph is not planar")
            self._embedding = embedding
        return self._embedding

    @property
    def n(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def m(self) -> int:
        return self._graph.number_of_edges()

    def vertices(self) -> List:
        return list(self._graph.nodes())

    def edges(self) -> List[Tuple]:
        return list(self._graph.edges())

    def neighbors(self, vertex) -> List:
        return list(self._graph.neighbors(vertex))

    def has_vertex(self, vertex) -> bool:
        return self._graph.has_node(vertex)

    def degree(self, vertex) -> int:
        return int(self._graph.degree(vertex))

    # ------------------------------------------------------------------ #
    def remove_vertices(self, vertices: Iterable) -> "PlanarGraph":
        """New graph with ``vertices`` (and incident edges) removed."""
        g = self._graph.copy()
        g.remove_nodes_from(list(vertices))
        return PlanarGraph(g, check_planarity=False)

    def subgraph(self, vertices: Iterable) -> "PlanarGraph":
        """Induced subgraph on ``vertices``."""
        return PlanarGraph(self._graph.subgraph(list(vertices)).copy(), check_planarity=False)

    def connected_components(self) -> List["PlanarGraph"]:
        """Induced subgraphs on each connected component."""
        return [self.subgraph(component) for component in nx.connected_components(self._graph)]

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return nx.is_connected(self._graph)

    def adjacency_index(self) -> Dict:
        """Stable vertex → contiguous index map (sorted by label repr)."""
        return {v: i for i, v in enumerate(sorted(self._graph.nodes(), key=repr))}

    def __repr__(self) -> str:  # pragma: no cover
        return f"PlanarGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #
def grid_graph(rows: int, cols: int) -> PlanarGraph:
    """The ``rows x cols`` grid graph (the dimer-model workload).

    It has a perfect matching iff ``rows * cols`` is even.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    g = nx.grid_2d_graph(rows, cols)
    return PlanarGraph(g)


def ladder_graph(length: int) -> PlanarGraph:
    """The ladder graph ``P_length x P_2`` (2 x length grid)."""
    return grid_graph(2, length)


def cycle_graph(length: int) -> PlanarGraph:
    """The cycle ``C_length`` (2 perfect matchings when ``length`` is even)."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    return PlanarGraph(nx.cycle_graph(length))


def delaunay_graph(num_points: int, seed: SeedLike = None) -> PlanarGraph:
    """Random planar graph from the Delaunay triangulation of random points."""
    from scipy.spatial import Delaunay

    if num_points < 3:
        raise ValueError("need at least 3 points")
    rng = as_generator(seed)
    points = rng.random((num_points, 2))
    tri = Delaunay(points)
    g = nx.Graph()
    g.add_nodes_from(range(num_points))
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        g.add_edges_from([(a, b), (b, c), (a, c)])
    return PlanarGraph(g)
