"""Tree-depth and elimination forests (Definition 9.1 of the paper).

An elimination forest of a graph G is a rooted forest on V(G) such that every
edge of G connects an ancestor-descendant pair.  The tree-depth of G is the
minimum height (number of vertices on the longest root-to-leaf path) of such a
forest.  Theorem 9.7 produces unfoldings of tree-depth at most arity(sigma);
by [5], pathwidth and treewidth are below tree-depth, which is how the
bounded-pathwidth lineage results apply to unfolded instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DecompositionError
from repro.structure.graph import Graph, Vertex, element_key


@dataclass
class EliminationForest:
    """A rooted forest on the vertices of a graph, given by a parent map."""

    parent: dict[Vertex, Vertex | None]

    @property
    def roots(self) -> list[Vertex]:
        return [v for v, p in self.parent.items() if p is None]

    def depth_of(self, vertex: Vertex) -> int:
        """1-based depth of ``vertex`` (roots have depth 1)."""
        depth = 1
        current = vertex
        seen = {vertex}
        while self.parent[current] is not None:
            current = self.parent[current]
            if current in seen:
                raise DecompositionError("parent map contains a cycle")
            seen.add(current)
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """The height of the forest (max depth over vertices); 0 if empty."""
        if not self.parent:
            return 0
        return max(self.depth_of(v) for v in self.parent)

    def ancestors(self, vertex: Vertex) -> list[Vertex]:
        """Strict ancestors of ``vertex``, closest first."""
        result: list[Vertex] = []
        current = self.parent[vertex]
        while current is not None:
            result.append(current)
            current = self.parent[current]
        return result

    def is_valid_for(self, graph: Graph) -> bool:
        try:
            self.validate(graph)
        except DecompositionError:
            return False
        return True

    def validate(self, graph: Graph) -> None:
        if set(self.parent) != set(graph.vertices):
            raise DecompositionError("elimination forest must cover exactly the graph vertices")
        for u, v in graph.edges():
            if u not in self.ancestors(v) and v not in self.ancestors(u) and u != v:
                raise DecompositionError(
                    f"edge ({u!r}, {v!r}) does not connect an ancestor-descendant pair"
                )


def tree_depth(graph: Graph, exact: bool = True) -> int:
    """The tree-depth of ``graph``.

    Exact recursive computation (memoized over connected subgraphs); suitable
    for the small graphs we measure.  For larger graphs, ``exact=False`` falls
    back to a DFS-based upper bound.
    """
    if len(graph) == 0:
        return 0
    if exact and len(graph) <= 14:
        forest = optimal_elimination_forest(graph)
        return forest.height
    return dfs_elimination_forest(graph).height


def dfs_elimination_forest(graph: Graph) -> EliminationForest:
    """An elimination forest from DFS trees (valid but not optimal).

    Every non-tree edge of a DFS is a back edge, so DFS trees are elimination
    forests; their height is at most 2^(tree-depth), a classical bound.
    """
    parent: dict[Vertex, Vertex | None] = {}
    visited: set[Vertex] = set()
    for start in sorted(graph.vertices, key=element_key):
        if start in visited:
            continue
        # Parents are assigned when a vertex is *entered* (popped), not when it
        # is first seen: marking at push time yields a traversal with cross
        # edges, which is not a DFS tree and not an elimination forest.
        stack: list[tuple[Vertex, Vertex | None]] = [(start, None)]
        while stack:
            current, predecessor = stack.pop()
            if current in visited:
                continue
            visited.add(current)
            parent[current] = predecessor
            for neighbor in sorted(graph.neighbors(current), key=element_key, reverse=True):
                if neighbor not in visited:
                    stack.append((neighbor, current))
    forest = EliminationForest(parent)
    forest.validate(graph)
    return forest


def optimal_elimination_forest(graph: Graph) -> EliminationForest:
    """An elimination forest of minimum height (exact tree-depth).

    Recursive definition: td(G) = 1 + min over root v of td(G - v) for
    connected G, and the max over components otherwise.  Memoized on vertex
    sets; exponential, for graphs of ~14 vertices or fewer.
    """
    memo: dict[frozenset, tuple[int, dict[Vertex, Vertex | None]]] = {}

    def solve(vertices: frozenset) -> tuple[int, dict[Vertex, Vertex | None]]:
        if not vertices:
            return 0, {}
        if vertices in memo:
            return memo[vertices]
        sub = graph.subgraph(vertices)
        components = sub.connected_components()
        if len(components) > 1:
            height = 0
            parent: dict[Vertex, Vertex | None] = {}
            for component in components:
                comp_height, comp_parent = solve(frozenset(component))
                height = max(height, comp_height)
                parent.update(comp_parent)
            memo[vertices] = (height, parent)
            return memo[vertices]
        best_height = len(vertices) + 1
        best_parent: dict[Vertex, Vertex | None] = {}
        best_root: Vertex | None = None
        for root in sorted(vertices, key=element_key):
            rest_height, rest_parent = solve(vertices - {root})
            if 1 + rest_height < best_height:
                best_height = 1 + rest_height
                best_parent = rest_parent
                best_root = root
                if best_height == 1:
                    break
        parent = dict(best_parent)
        parent[best_root] = None
        # Re-root the forests of the remainder under the chosen root.
        for v, p in list(parent.items()):
            if p is None and v != best_root:
                parent[v] = best_root
        memo[vertices] = (best_height, parent)
        return memo[vertices]

    height, parent = solve(frozenset(graph.vertices))
    forest = EliminationForest(parent)
    forest.validate(graph)
    if forest.height != height:  # pragma: no cover - internal consistency check
        raise DecompositionError("computed forest height does not match tree-depth")
    return forest


def pathwidth_upper_bound_from_tree_depth(depth: int) -> int:
    """Lemma 11 of [5]: pathwidth <= tree-depth - 1."""
    return max(depth - 1, -1)
