"""Tree decompositions and treewidth (Section 2 of the paper).

A tree decomposition of a graph is a tree of *bags* (sets of vertices) such
that (i) every edge is covered by some bag and (ii) the bags containing any
given vertex form a connected subtree.  Its width is the maximum bag size
minus one, and the treewidth of the graph is the minimum width over all
decompositions.

We build decompositions from elimination orderings (heuristic or exact) and
validate them explicitly.  Decompositions are rooted trees stored as a parent
map; they also expose traversals used by the lineage constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import DecompositionError
from repro.structure.elimination import (
    EliminationSweep,
    best_heuristic_ordering_with_width,
    best_heuristic_sweep,
    exact_ordering,
    ordering_width,
    treewidth_lower_bound,  # re-exported: it lives beside the sweeps it prunes
)
from repro.structure.graph import Graph, Vertex, element_key

BagId = int


@dataclass
class TreeDecomposition:
    """A rooted tree decomposition.

    Attributes
    ----------
    bags:
        Mapping from bag id to the frozenset of graph vertices in the bag.
    children:
        Mapping from bag id to the list of its children bag ids.
    root:
        The id of the root bag.
    """

    bags: dict[BagId, frozenset]
    children: dict[BagId, list[BagId]]
    root: BagId
    parent: dict[BagId, BagId | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.parent:
            self.parent = {self.root: None}
            for node, kids in self.children.items():
                for kid in kids:
                    self.parent[kid] = node
        for node in self.bags:
            self.children.setdefault(node, [])

    # -- basic accessors -----------------------------------------------------

    @property
    def width(self) -> int:
        """max bag size - 1 (width -1 for the empty decomposition)."""
        if not self.bags:
            return -1
        return max(len(bag) for bag in self.bags.values()) - 1

    def __len__(self) -> int:
        return len(self.bags)

    def nodes(self) -> tuple[BagId, ...]:
        return tuple(self.bags)

    def bag(self, node: BagId) -> frozenset:
        return self.bags[node]

    def is_leaf(self, node: BagId) -> bool:
        return not self.children.get(node)

    # -- traversals ----------------------------------------------------------

    def topological_order(self) -> list[BagId]:
        """Root-first (pre-order) traversal."""
        order: list[BagId] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(self.children.get(node, [])))
        return order

    def post_order(self) -> list[BagId]:
        """Children-before-parent traversal."""
        order: list[BagId] = []
        stack: list[tuple[BagId, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for kid in reversed(self.children.get(node, [])):
                    stack.append((kid, False))
        return order

    def dfs_vertex_order(self) -> list:
        """Graph vertices in order of first appearance along a pre-order walk.

        This order is used to derive OBDD variable orders (Section 6)."""
        seen: dict[Any, None] = {}
        for node in self.topological_order():
            for vertex in sorted(self.bags[node], key=element_key):
                seen.setdefault(vertex, None)
        return list(seen)

    # -- validation ----------------------------------------------------------

    def is_valid_for(self, graph: Graph) -> bool:
        try:
            self.validate(graph)
        except DecompositionError:
            return False
        return True

    def validate(self, graph: Graph) -> None:
        """Raise :class:`DecompositionError` unless this is a valid decomposition."""
        all_bag_vertices = set()
        for bag in self.bags.values():
            all_bag_vertices |= bag
        missing = set(graph.vertices) - all_bag_vertices
        if missing:
            raise DecompositionError(f"vertices not covered by any bag: {sorted(map(repr, missing))[:5]}")
        # Tree structure.
        if self.root not in self.bags:
            raise DecompositionError("root is not a bag")
        reachable = set(self.topological_order())
        if reachable != set(self.bags):
            raise DecompositionError("decomposition tree is not connected")
        # Edge coverage.
        for u, v in graph.edges():
            if not any(u in bag and v in bag for bag in self.bags.values()):
                raise DecompositionError(f"edge ({u!r}, {v!r}) not covered by any bag")
        # Connectedness of occurrences.
        for vertex in graph.vertices:
            occurrences = [node for node, bag in self.bags.items() if vertex in bag]
            if not occurrences:
                raise DecompositionError(f"vertex {vertex!r} in no bag")
            if not self._occurrences_connected(set(occurrences)):
                raise DecompositionError(f"occurrences of {vertex!r} are not connected")

    def _occurrences_connected(self, occurrences: set[BagId]) -> bool:
        start = next(iter(occurrences))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            neighbors = list(self.children.get(node, []))
            if self.parent.get(node) is not None:
                neighbors.append(self.parent[node])
            for other in neighbors:
                if other in occurrences and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return seen == occurrences

    # -- transformations ------------------------------------------------------

    def relabel(self) -> "TreeDecomposition":
        """Renumber bag ids consecutively in topological order."""
        order = self.topological_order()
        new_id = {node: i for i, node in enumerate(order)}
        bags = {new_id[node]: self.bags[node] for node in order}
        children = {new_id[node]: [new_id[kid] for kid in self.children.get(node, [])] for node in order}
        return TreeDecomposition(bags=bags, children=children, root=new_id[self.root])

    def is_path_decomposition(self) -> bool:
        """True if every bag has at most one child (the tree is a path)."""
        return all(len(kids) <= 1 for kids in self.children.values())


def decomposition_from_sweep(sweep: EliminationSweep) -> TreeDecomposition:
    """Build a tree decomposition directly from an elimination sweep.

    The sweep already carries each vertex's bag (closed neighborhood at
    elimination time), so no elimination replay and no validation pass are
    needed: the construction is correct by construction.  Bag ids follow the
    elimination order; the last vertex's bag is the root, and the parent of
    the bag of ``v`` is the bag of the earliest-eliminated remaining
    neighbor (standard construction; width equals the sweep width).
    """
    order = sweep.order
    if not order:
        return TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)
    children = {i: kids for i, kids in enumerate(sweep.tree_children())}
    bags = {i: sweep.bags[i] for i in range(len(order))}
    return TreeDecomposition(bags=bags, children=children, root=len(order) - 1)


def decomposition_from_ordering(
    graph: Graph, ordering: Sequence[Vertex], validate: bool = True
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination ordering.

    The bag of vertex ``v`` is ``{v} ∪ N(v)`` at elimination time; the parent
    of the bag of ``v`` is the bag of the earliest-eliminated remaining
    neighbor (standard construction; width equals the ordering width).

    ``validate=False`` skips the final validation pass (quadratic in the
    instance size); the construction itself is sound for any permutation of
    the vertices, so validation only guards the ordering contract.
    """
    vertices = list(ordering)
    if set(vertices) != set(graph.vertices) or len(vertices) != len(graph):
        raise DecompositionError("ordering must contain every vertex exactly once")
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    bags: list[frozenset] = []
    width = 0
    for v in vertices:
        neighbors = adjacency.pop(v)
        for u in neighbors:
            adjacency[u].discard(v)
        bags.append(frozenset({v} | neighbors))
        width = max(width, len(neighbors))
        neighbor_list = list(neighbors)
        for i, a in enumerate(neighbor_list):
            for b in neighbor_list[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    decomposition = decomposition_from_sweep(
        EliminationSweep(order=vertices, bags=bags, width=width)
    )
    if validate:
        decomposition.validate(graph)
    return decomposition


def tree_decomposition(graph: Graph, exact: bool = False) -> TreeDecomposition:
    """A tree decomposition of ``graph`` (heuristic by default, exact if asked)."""
    if len(graph) == 0:
        return TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)
    if exact:
        return decomposition_from_ordering(graph, exact_ordering(graph))
    return decomposition_from_sweep(best_heuristic_sweep(graph))


def treewidth(graph: Graph, exact: bool = False) -> int:
    """The treewidth of ``graph`` (upper bound unless ``exact=True``)."""
    if len(graph) == 0:
        return -1
    if exact:
        return ordering_width(graph, exact_ordering(graph))
    _, width = best_heuristic_ordering_with_width(graph)
    return width
