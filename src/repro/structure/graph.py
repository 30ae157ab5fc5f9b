"""A small undirected-graph implementation used throughout the library.

The paper's graphs are undirected, simple, and unlabeled (Section 2).  We keep
this class dependency-free (plain adjacency dicts) so that the decomposition
algorithms are self-contained; generators may convert to/from networkx when
convenient, but nothing in the core requires it.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

Vertex = Hashable


def element_key(element: Any) -> tuple[str, str]:
    """A process-stable total order on heterogeneous elements: by type name,
    then ``repr``, which tells elements of one type apart.

    Domains, vertex orders and variable orders are sorted by this key, so
    they do not depend on hash seeds or on the order elements were given.
    """
    return (type(element).__name__, repr(element))


class Graph:
    """A mutable, simple, undirected graph."""

    __slots__ = ("_adjacency",)

    def __init__(self, edges: Iterable[tuple[Vertex, Vertex]] = ()) -> None:
        self._adjacency: dict[Vertex, set[Vertex]] = {}
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction --------------------------------------------------------

    def add_vertex(self, v: Vertex) -> None:
        self._adjacency.setdefault(v, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            # The paper's graphs are simple: ignore self-loops.
            self.add_vertex(u)
            return
        self._adjacency.setdefault(u, set()).add(v)
        self._adjacency.setdefault(v, set()).add(u)

    def remove_vertex(self, v: Vertex) -> None:
        for neighbor in self._adjacency.pop(v, set()):
            self._adjacency[neighbor].discard(v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        self._adjacency.get(u, set()).discard(v)
        self._adjacency.get(v, set()).discard(u)

    def copy(self) -> "Graph":
        clone = Graph()
        clone._adjacency = {v: set(ns) for v, ns in self._adjacency.items()}
        return clone

    # -- accessors -----------------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, v: object) -> bool:
        return v in self._adjacency

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adjacency)

    def neighbors(self, v: Vertex) -> set[Vertex]:
        return set(self._adjacency.get(v, set()))

    def degree(self, v: Vertex) -> int:
        return len(self._adjacency.get(v, set()))

    def max_degree(self) -> int:
        if not self._adjacency:
            return 0
        return max(len(ns) for ns in self._adjacency.values())

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self._adjacency.get(u, set())

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """Each undirected edge once, as a canonically ordered pair."""
        seen: set[frozenset] = set()
        result: list[tuple[Vertex, Vertex]] = []
        for u, ns in self._adjacency.items():
            for v in ns:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    result.append((u, v))
        return result

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adjacency.values()) // 2

    def __repr__(self) -> str:
        return f"Graph({len(self)} vertices, {self.edge_count()} edges)"

    # -- structure -----------------------------------------------------------

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        wanted = set(vertices)
        result = Graph()
        for v in wanted:
            if v in self._adjacency:
                result.add_vertex(v)
        for u, v in self.edges():
            if u in wanted and v in wanted:
                result.add_edge(u, v)
        return result

    def connected_components(self) -> list[set[Vertex]]:
        components: list[set[Vertex]] = []
        unseen = set(self._adjacency)
        while unseen:
            start = next(iter(unseen))
            component = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                for neighbor in self._adjacency[current]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            components.append(component)
            unseen -= component
        return components

    def is_connected(self) -> bool:
        return len(self) <= 1 or len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        """Acyclic and connected (the paper's definition of a tree)."""
        return self.is_connected() and self.edge_count() == max(len(self) - 1, 0)

    def is_forest(self) -> bool:
        return all(
            self.subgraph(component).edge_count() == len(component) - 1
            for component in self.connected_components()
        )

    def has_cycle(self) -> bool:
        return not self.is_forest()

    def is_k_regular(self, k: int) -> bool:
        return all(self.degree(v) == k for v in self)

    def is_K_regular(self, degrees: Iterable[int]) -> bool:
        """True if every vertex degree belongs to the given finite set."""
        allowed = set(degrees)
        return all(self.degree(v) in allowed for v in self)

    def shortest_path(self, source: Vertex, target: Vertex) -> list[Vertex] | None:
        """BFS shortest path (as a vertex list), or None if disconnected."""
        if source == target:
            return [source]
        parents: dict[Vertex, Vertex] = {source: source}
        frontier = [source]
        while frontier:
            next_frontier: list[Vertex] = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if v not in parents:
                        parents[v] = u
                        if v == target:
                            path = [v]
                            while path[-1] != source:
                                path.append(parents[path[-1]])
                            return list(reversed(path))
                        next_frontier.append(v)
            frontier = next_frontier
        return None

    def to_networkx(self) -> Any:
        """Convert to a networkx graph (only used by generators/tests)."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.vertices)
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, graph: Any) -> "Graph":
        result = cls()
        for v in graph.nodes():
            result.add_vertex(v)
        for u, v in graph.edges():
            result.add_edge(u, v)
        return result


def complete_graph(n: int) -> Graph:
    """The clique K_n on vertices 0..n-1."""
    graph = Graph()
    for i in range(n):
        graph.add_vertex(i)
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_edge(i, j)
    return graph


def path_graph(n: int) -> Graph:
    """The path on vertices 0..n-1."""
    graph = Graph()
    for i in range(n):
        graph.add_vertex(i)
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(n: int) -> Graph:
    """The cycle on vertices 0..n-1 (n >= 3)."""
    graph = path_graph(n)
    if n >= 3:
        graph.add_edge(n - 1, 0)
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid graph; treewidth = min(rows, cols) for non-trivial grids."""
    graph = Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_vertex((r, c))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    return graph


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n} with parts labelled ('a', i) and ('b', j)."""
    graph = Graph()
    for i in range(m):
        graph.add_vertex(("a", i))
    for j in range(n):
        graph.add_vertex(("b", j))
    for i in range(m):
        for j in range(n):
            graph.add_edge(("a", i), ("b", j))
    return graph
