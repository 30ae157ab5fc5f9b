"""Path decompositions and pathwidth (Section 2 of the paper).

A path decomposition is a tree decomposition whose tree is a path.  The
pathwidth of a graph is the minimum width of a path decomposition.  Constant-
width OBDDs on bounded-pathwidth instances (Theorem 6.7) rely on a variable
order following a path decomposition.

We compute path decompositions with a vertex-separation heuristic (greedy +
local search) and an exact search for small graphs, and can also flatten a
tree decomposition into a path decomposition (width at most (w+1)*depth - 1,
used only as a fallback).
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.errors import DecompositionError
from repro.structure.graph import Graph, Vertex
from repro.structure.tree_decomposition import TreeDecomposition


class PathDecomposition:
    """A path decomposition: an ordered list of bags."""

    __slots__ = ("_bags",)

    def __init__(self, bags: Sequence[frozenset]) -> None:
        self._bags: tuple[frozenset, ...] = tuple(frozenset(b) for b in bags)

    @property
    def bags(self) -> tuple[frozenset, ...]:
        return self._bags

    @property
    def width(self) -> int:
        if not self._bags:
            return -1
        return max(len(bag) for bag in self._bags) - 1

    def __len__(self) -> int:
        return len(self._bags)

    def vertex_order(self) -> list:
        """Graph vertices by first appearance along the path (for OBDD orders)."""
        seen: dict[Any, None] = {}
        for bag in self._bags:
            for vertex in sorted(bag, key=_stable_key):
                seen.setdefault(vertex, None)
        return list(seen)

    def validate(self, graph: Graph) -> None:
        """Raise :class:`DecompositionError` unless this is a valid path
        decomposition of ``graph``.

        One pass over the bags indexes each vertex's first and last bag and
        notes the vertices that skip a bag between two occurrences: an edge
        between two contiguous vertices is covered exactly when their
        intervals overlap.  An edge touching a split vertex (an invalid
        decomposition either way) is checked by scanning the bags, so the
        error raised is the one a plain bag scan raises, checking cover,
        then edges, then contiguity (kept as :func:`repro.structure.
        reference.validate_path_decomposition_seed`).
        """
        first: dict[Vertex, int] = {}
        last: dict[Vertex, int] = {}
        split: set[Vertex] = set()
        for i, bag in enumerate(self._bags):
            for vertex in bag:
                if vertex not in first:
                    first[vertex] = i
                elif last[vertex] != i - 1:
                    split.add(vertex)
                last[vertex] = i
        if any(vertex not in first for vertex in graph.vertices):
            raise DecompositionError("path decomposition does not cover all vertices")
        for u, v in graph.edges():
            if u in split or v in split:
                covered = any(u in bag and v in bag for bag in self._bags)
            else:
                covered = max(first[u], first[v]) <= min(last[u], last[v])
            if not covered:
                raise DecompositionError(f"edge ({u!r}, {v!r}) not covered")
        for vertex in graph.vertices:
            if vertex in split:
                raise DecompositionError(f"occurrences of {vertex!r} are not contiguous")

    def to_tree_decomposition(self) -> TreeDecomposition:
        """View the path as a (rooted, left-to-right) tree decomposition."""
        if not self._bags:
            return TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)
        bags = {i: bag for i, bag in enumerate(self._bags)}
        children = {i: ([i + 1] if i + 1 < len(self._bags) else []) for i in range(len(self._bags))}
        return TreeDecomposition(bags=bags, children=children, root=0)

    def is_valid_for(self, graph: Graph) -> bool:
        try:
            self.validate(graph)
        except DecompositionError:
            return False
        return True


def path_decomposition_from_order(graph: Graph, order: Sequence[Vertex]) -> PathDecomposition:
    """The path decomposition induced by a linear vertex order.

    Bag ``i`` contains vertex ``order[i]`` together with every earlier vertex
    that still has a neighbor at position >= i (the "active" vertices).  Its
    width is the vertex separation number of the order.
    """
    if set(order) != set(graph.vertices):
        raise DecompositionError("order must contain every vertex exactly once")
    position = {v: i for i, v in enumerate(order)}
    last_needed = {
        v: max([position[v]] + [position[u] for u in graph.neighbors(v)]) for v in order
    }
    bags: list[frozenset] = []
    active: set[Vertex] = set()
    for i, v in enumerate(order):
        active.add(v)
        bags.append(frozenset(active))
        active = {u for u in active if last_needed[u] > i}
    decomposition = PathDecomposition(bags)
    decomposition.validate(graph)
    return decomposition


def greedy_path_order(graph: Graph) -> list[Vertex]:
    """A greedy linear order minimizing the number of active vertices.

    At each step, pick the vertex that minimizes the resulting active-set
    size, breaking ties by number of not-yet-placed neighbors, then by the
    stable vertex key.

    Placing ``v`` keeps every active vertex except those whose only
    remaining neighbor is ``v`` (``c1[v]`` of them), and adds ``v`` itself
    when it has remaining neighbors, so the resulting active-set size is
    ``|active| - c1[v] + [rdeg[v] > 0]``.  ``|active|`` is shared by every
    candidate, so a lazy heap keyed ``([rdeg > 0] - c1, rdeg, index)`` over
    stable-key-indexed vertices pops exactly the vertex a full rescan would
    pick.  Placing ``v`` changes the keys of its remaining neighbors
    (``rdeg`` drops) and of the single remaining neighbor of every active
    vertex whose ``rdeg`` drops to one (``c1`` grows); only those are
    re-pushed.  The seed full rescan is kept as
    :func:`repro.structure.reference.greedy_path_order_seed`.
    """
    vertices = sorted(graph.vertices, key=_stable_key)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = [[index[u] for u in graph.neighbors(v)] for v in vertices]
    n = len(vertices)
    remaining = [True] * n
    rdeg = [len(neighbors) for neighbors in adjacency]
    c1 = [0] * n
    heap = [(int(rdeg[i] > 0), rdeg[i], i) for i in range(n)]
    heapq.heapify(heap)

    def credit_last_neighbor(u: int) -> None:
        """``u`` is active with one remaining neighbor: that neighbor's
        placement would now retire ``u``."""
        w = next(x for x in adjacency[u] if remaining[x])
        c1[w] += 1
        heapq.heappush(heap, ((rdeg[w] > 0) - c1[w], rdeg[w], w))

    placed: list[Vertex] = []
    for _ in range(n):
        while True:
            key, degree, v = heapq.heappop(heap)
            if remaining[v] and key == (degree > 0) - c1[v] and degree == rdeg[v]:
                break
        remaining[v] = False
        placed.append(vertices[v])
        for u in adjacency[v]:
            rdeg[u] -= 1
            if remaining[u]:
                heapq.heappush(heap, ((rdeg[u] > 0) - c1[u], rdeg[u], u))
            elif rdeg[u] == 1:
                credit_last_neighbor(u)
        if rdeg[v] == 1:
            credit_last_neighbor(v)
    return placed


def path_decomposition(graph: Graph, exact: bool = False) -> PathDecomposition:
    """A path decomposition of ``graph`` (heuristic; exact for small graphs)."""
    if len(graph) == 0:
        return PathDecomposition([frozenset()])
    if exact and len(graph) <= 12:
        order = _exact_path_order(graph)
    else:
        order = greedy_path_order(graph)
    return path_decomposition_from_order(graph, order)


def pathwidth(graph: Graph, exact: bool = False) -> int:
    """The pathwidth of ``graph`` (upper bound unless ``exact=True`` and small)."""
    return path_decomposition(graph, exact=exact).width


def _exact_path_order(graph: Graph) -> list[Vertex]:
    """Exact minimum vertex-separation order by DP over vertex subsets."""
    vertices = sorted(graph.vertices, key=_stable_key)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    neighbor_masks = [0] * n
    for v in vertices:
        mask = 0
        for u in graph.neighbors(v):
            mask |= 1 << index[u]
        neighbor_masks[index[v]] = mask

    def boundary_size(placed_mask: int) -> int:
        remaining_mask = ((1 << n) - 1) ^ placed_mask
        count = 0
        for i in range(n):
            if placed_mask >> i & 1 and neighbor_masks[i] & remaining_mask:
                count += 1
        return count

    # DP over subsets: best achievable max boundary when the subset is placed.
    best: dict[int, tuple[int, int]] = {0: (0, -1)}  # mask -> (cost, last vertex)
    for mask in range(1, 1 << n):
        candidates: list[tuple[int, int]] = []
        for i in range(n):
            if mask >> i & 1:
                prev = mask ^ (1 << i)
                if prev in best:
                    cost = max(best[prev][0], boundary_size(prev | (1 << i)))
                    candidates.append((cost, i))
        if candidates:
            best[mask] = min(candidates)
    order_indices: list[int] = []
    mask = (1 << n) - 1
    while mask:
        _, last = best[mask]
        order_indices.append(last)
        mask ^= 1 << last
    order_indices.reverse()
    return [vertices[i] for i in order_indices]


def path_decomposition_from_tree(decomposition: TreeDecomposition) -> PathDecomposition:
    """Flatten a tree decomposition into a path decomposition.

    Bags are taken in pre-order; to preserve the connectedness condition, each
    bag is augmented with the vertices of all bags on the tree path between it
    and previously visited bags that reappear later.  The width can grow; this
    is a fallback for callers that insist on a path shape.
    """
    order = decomposition.topological_order()
    bags = [decomposition.bags[node] for node in order]
    # Fix contiguity: for each vertex, fill the gap between its first and last occurrence.
    first: dict[Any, int] = {}
    last: dict[Any, int] = {}
    for i, bag in enumerate(bags):
        for vertex in bag:
            first.setdefault(vertex, i)
            last[vertex] = i
    fixed = []
    for i, bag in enumerate(bags):
        extra = {v for v in first if first[v] <= i <= last[v]}
        fixed.append(frozenset(bag | extra))
    return PathDecomposition(fixed)


def _stable_key(vertex: Any) -> tuple[str, str]:
    return (type(vertex).__name__, repr(vertex))
