"""Topological minors and grid-like structures (Definition 4.3, Lemma 4.4).

The hardness results of Sections 4, 5 and 8 extract a planar degree-3 graph H
as a *topological minor* of any graph of sufficiently large treewidth: an
injective mapping of V(H) into V(G) together with vertex-disjoint paths
realizing the edges of H.  The paper uses the polynomial grid-minor theorem
of Chekuri-Chuzhoy [10]; as a Python prototype substitution we provide:

* a backtracking embedder :func:`find_topological_minor` (exact, exponential,
  fine for the small H used in reductions),
* a specialized fast extractor of grid topological minors from grid/wall-like
  host graphs (:func:`embed_grid_in_grid`), covering the instance families the
  benchmark harness actually uses,
* the *skewed grid* construction of Lemma 8.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.structure.graph import Graph, Vertex, element_key


@dataclass
class TopologicalMinorEmbedding:
    """An embedding of H into G: vertex images plus vertex-disjoint paths."""

    vertex_map: dict[Vertex, Vertex]
    edge_paths: dict[tuple[Vertex, Vertex], list[Vertex]]

    def all_used_vertices(self) -> set[Vertex]:
        used = set(self.vertex_map.values())
        for path in self.edge_paths.values():
            used |= set(path)
        return used

    def validate(self, pattern: Graph, host: Graph) -> bool:
        """Check injectivity, path validity, and internal disjointness."""
        if len(set(self.vertex_map.values())) != len(self.vertex_map):
            return False
        if set(self.vertex_map) != set(pattern.vertices):
            return False
        interior_used: set[Vertex] = set()
        endpoints = set(self.vertex_map.values())
        covered_edges = set()
        for (u, v), path in self.edge_paths.items():
            if not pattern.has_edge(u, v):
                return False
            covered_edges.add(frozenset((u, v)))
            if path[0] != self.vertex_map[u] or path[-1] != self.vertex_map[v]:
                return False
            for a, b in zip(path, path[1:]):
                if not host.has_edge(a, b):
                    return False
            interior = path[1:-1]
            for w in interior:
                if w in interior_used or w in endpoints:
                    return False
                interior_used.add(w)
        expected_edges = {frozenset((u, v)) for u, v in pattern.edges()}
        return covered_edges == expected_edges


def find_topological_minor(
    pattern: Graph, host: Graph, max_path_length: int = 8
) -> TopologicalMinorEmbedding | None:
    """Search for an embedding of ``pattern`` as a topological minor of ``host``.

    Backtracking over branch-vertex placements and edge paths; exponential, so
    only suitable for small patterns (a handful of vertices) and moderate
    hosts.  ``max_path_length`` bounds the length of subdivision paths.
    """
    pattern_vertices = sorted(pattern.vertices, key=element_key)
    pattern_edges = [tuple(sorted(e, key=element_key)) for e in pattern.edges()]
    pattern_edges.sort(key=lambda e: (element_key(e[0]), element_key(e[1])))
    host_vertices = sorted(host.vertices, key=element_key)

    vertex_map: dict[Vertex, Vertex] = {}
    used: set[Vertex] = set()
    edge_paths: dict[tuple[Vertex, Vertex], list[Vertex]] = {}

    # repro-analysis: allow(REC001): backtracking depth <= |pattern vertices| + |pattern edges|, and minor patterns are small by construction
    def assign(index: int) -> bool:
        if index == len(pattern_vertices):
            return route(0)
        v = pattern_vertices[index]
        for candidate in host_vertices:
            if candidate in used:
                continue
            if host.degree(candidate) < pattern.degree(v):
                continue
            vertex_map[v] = candidate
            used.add(candidate)
            if assign(index + 1):
                return True
            used.discard(candidate)
            del vertex_map[v]
        return False

    # repro-analysis: allow(REC001): mutual recursion with assign is bounded by the (small) pattern size
    def route(edge_index: int) -> bool:
        if edge_index == len(pattern_edges):
            return True
        u, v = pattern_edges[edge_index]
        source, target = vertex_map[u], vertex_map[v]
        blocked = used | set().union(*[set(p[1:-1]) for p in edge_paths.values()]) if edge_paths else set(used)
        for path in _paths_up_to(host, source, target, max_path_length, blocked - {source, target}):
            edge_paths[(u, v)] = path
            if route(edge_index + 1):
                return True
            del edge_paths[(u, v)]
        return False

    if assign(0):
        embedding = TopologicalMinorEmbedding(dict(vertex_map), dict(edge_paths))
        if embedding.validate(pattern, host):
            return embedding
    return None


def _paths_up_to(graph: Graph, source: Vertex, target: Vertex, limit: int, blocked: set[Vertex]):
    """Enumerate simple paths from source to target of length <= limit avoiding blocked interiors."""

    # repro-analysis: allow(REC001): path enumeration depth is capped by the explicit length limit (max_path_length)
    def extend(path: list[Vertex]):
        current = path[-1]
        if current == target:
            yield list(path)
            return
        if len(path) > limit:
            return
        for neighbor in sorted(graph.neighbors(current), key=element_key):
            if neighbor in path:
                continue
            if neighbor != target and neighbor in blocked:
                continue
            path.append(neighbor)
            yield from extend(path)
            path.pop()

    yield from extend([source])


def is_subdivision_of(subdivided: Graph, original: Graph) -> bool:
    """True iff ``subdivided`` is (isomorphic to) a subdivision of ``original``.

    We check by suppressing all degree-2 vertices of ``subdivided`` and testing
    whether the resulting multigraph equals ``original`` up to the identity on
    branch vertices — callers are expected to keep original vertex names on
    branch vertices, which all our subdivision generators do.
    """
    branch = {v for v in subdivided.vertices if subdivided.degree(v) != 2 or v in set(original.vertices)}
    recovered = Graph()
    for v in branch:
        recovered.add_vertex(v)
    visited_edges: set[frozenset] = set()
    for start in branch:
        for first in subdivided.neighbors(start):
            previous, current = start, first
            while current not in branch:
                nxt = [w for w in subdivided.neighbors(current) if w != previous]
                if len(nxt) != 1:
                    return False
                previous, current = current, nxt[0]
            key = frozenset((start, current))
            if key not in visited_edges and start != current:
                visited_edges.add(key)
                recovered.add_edge(start, current)
    if set(recovered.vertices) != set(original.vertices):
        return False
    return {frozenset(e) for e in recovered.edges()} == {frozenset(e) for e in original.edges()}


def subdivide(graph: Graph, times: int = 1) -> Graph:
    """Subdivide every edge of ``graph`` by inserting ``times`` fresh vertices."""
    result = Graph()
    for v in graph.vertices:
        result.add_vertex(v)
    for index, (u, v) in enumerate(sorted(graph.edges(), key=lambda e: (element_key(e[0]), element_key(e[1])))):
        previous = u
        for step in range(times):
            middle = ("sub", index, step)
            result.add_edge(previous, middle)
            previous = middle
        result.add_edge(previous, v)
    return result


def embed_grid_in_grid(size: int, host_rows: int, host_cols: int) -> TopologicalMinorEmbedding | None:
    """Embed the size x size grid as a topological minor of a host grid.

    When the host grid is at least as large, the identity embedding on the
    top-left corner works; this is the fast path used by the dichotomy
    benchmarks instead of the general (expensive) backtracking search.
    """
    if host_rows < size or host_cols < size:
        return None
    vertex_map = {(r, c): (r, c) for r in range(size) for c in range(size)}
    edge_paths: dict[tuple[Vertex, Vertex], list[Vertex]] = {}
    for r in range(size):
        for c in range(size):
            if r + 1 < size:
                edge_paths[((r, c), (r + 1, c))] = [(r, c), (r + 1, c)]
            if c + 1 < size:
                edge_paths[((r, c), (r, c + 1))] = [(r, c), (r, c + 1)]
    return TopologicalMinorEmbedding(vertex_map, edge_paths)


def skewed_grid(size: int) -> Graph:
    """The skewed grid used in the proof of Lemma 8.2.

    We realize it as the size x size grid with each "column" edge shifted by
    one: vertex (r, c) connects to (r+1, c) and to (r, c+1), plus the diagonal
    (r, c)-(r+1, c+1), yielding a degree-<=6 planar-ish graph whose treewidth
    is Theta(size).  Its exact shape is unimportant for the reproduction: what
    matters is that cutting it anywhere leaves many independent vertices with
    both an enumerated and a non-enumerated incident edge.
    """
    graph = Graph()
    for r in range(size):
        for c in range(size):
            graph.add_vertex((r, c))
    for r in range(size):
        for c in range(size):
            if r + 1 < size:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < size:
                graph.add_edge((r, c), (r, c + 1))
            if r + 1 < size and c + 1 < size:
                graph.add_edge((r, c), (r + 1, c + 1))
    return graph


def wall_graph(rows: int, cols: int) -> Graph:
    """The (rows x cols) wall: a degree-<=3 planar graph of treewidth Theta(min(rows, cols)).

    Walls are the canonical degree-3 high-treewidth graphs; they are the shape
    grid-minor extraction naturally produces for degree-3 patterns.
    """
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_vertex((r, c))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    for r in range(rows - 1):
        for c in range(cols):
            # vertical rungs in a brick-like pattern to keep degree <= 3
            if (r + c) % 2 == 0:
                graph.add_edge((r, c), (r + 1, c))
    return graph
