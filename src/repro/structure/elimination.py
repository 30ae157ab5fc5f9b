"""Elimination orderings for treewidth computation.

Eliminating a vertex connects all its remaining neighbors into a clique.  The
width of an ordering is the maximum number of neighbors a vertex has at its
elimination time; the minimum width over all orderings equals the treewidth.
We provide the classical min-degree and min-fill heuristics as well as an
exact iterative-deepening search for small graphs.

The heuristics run as *indexed* kernels: vertices are mapped to dense
integers (ordered by the stable tie-breaking key, so the heap tie-breaks
exactly like the seed linear scans), candidates live in a lazily-updated
binary heap, and after each elimination only the vertices whose degree or
fill count can actually have changed — the eliminated vertex's neighborhood,
plus (for min-fill) the common neighbors of each added fill edge — are
re-scored.  The seed heuristics, which re-scan every remaining vertex per
step, are preserved in :mod:`repro.structure.reference` as differential
oracles.

Each sweep records the bag (closed neighborhood at elimination time) of every
vertex and the running width, so callers get the certified width, and a tree
decomposition, as by-products of the ordering computation instead of
replaying the elimination (:func:`ordering_width`) once per consumer.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.structure.graph import Graph, Vertex, element_key


@dataclass
class EliminationSweep:
    """The full record of one elimination run.

    Attributes
    ----------
    order:
        The elimination ordering.
    bags:
        ``bags[i]`` is the closed neighborhood of ``order[i]`` at its
        elimination time — exactly the bag the standard ordering-to-
        decomposition construction assigns to it.
    width:
        The width certified by the ordering (``max(len(bag)) - 1``, and
        ``0`` for the empty graph), equal to ``ordering_width(graph, order)``.
    """

    order: list[Vertex]
    bags: list[frozenset]
    width: int

    def tree_children(self) -> list[list[int]]:
        """The classic ordering-to-decomposition tree over elimination indices.

        ``result[t]`` lists the children of bag ``t``; the parent of the bag
        of ``order[i]`` is the bag of its earliest-eliminated remaining
        neighbor (everything else in ``bags[i]`` is eliminated strictly
        later), a lone vertex of a disconnected piece hangs off the root
        (the last bag), and children always carry a smaller index than their
        parent.
        """
        n = len(self.order)
        children: list[list[int]] = [[] for _ in range(n)]
        if n == 0:
            return children
        position = {v: i for i, v in enumerate(self.order)}
        root = n - 1
        for i in range(root):
            v = self.order[i]
            later = [position[u] for u in self.bags[i] if u != v]
            children[min(later) if later else root].append(i)
        return children


def _eliminate(adjacency: dict[Vertex, set[Vertex]], v: Vertex) -> int:
    """Eliminate ``v`` in-place, returning its degree at elimination time."""
    neighbors = adjacency.pop(v)
    for u in neighbors:
        adjacency[u].discard(v)
    neighbor_list = list(neighbors)
    for i, a in enumerate(neighbor_list):
        for b in neighbor_list[i + 1 :]:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return len(neighbor_list)


def ordering_width(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """The width of an elimination ordering (the treewidth bound it certifies)."""
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    width = 0
    for v in ordering:
        width = max(width, _eliminate(adjacency, v))
    return width


def _fill_count(adjacency: list[set[int]], v: int) -> int:
    """Missing edges among the current neighbors of ``v``."""
    neighbors = list(adjacency[v])
    missing = 0
    for i, a in enumerate(neighbors):
        adjacent_to_a = adjacency[a]
        for b in neighbors[i + 1 :]:
            if b not in adjacent_to_a:
                missing += 1
    return missing


def _indexed_sweep(graph: Graph, use_fill: bool) -> EliminationSweep:
    """One heap-driven elimination sweep (min-degree or min-fill).

    Vertices are indexed in stable-key order, so heap entries compare as
    ``(score..., stable_key)`` — the exact tie-breaking of the seed scans —
    and stale entries are discarded lazily against the current score arrays.
    """
    vertices = sorted(graph.vertices, key=element_key)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency: list[set[int]] = [
        {index[u] for u in graph.neighbors(v)} for v in vertices
    ]
    alive = [True] * n
    degree = [len(neighbors) for neighbors in adjacency]
    fill = [_fill_count(adjacency, i) for i in range(n)] if use_fill else []

    if use_fill:
        heap = [(fill[i], degree[i], i) for i in range(n)]
    else:
        heap = [(degree[i], i) for i in range(n)]
    heapq.heapify(heap)

    order: list[Vertex] = []
    bags: list[frozenset] = []
    width = 0
    for _ in range(n):
        while True:
            entry = heapq.heappop(heap)
            v = entry[-1]
            if not alive[v]:
                continue
            if use_fill:
                if entry[0] == fill[v] and entry[1] == degree[v]:
                    break
            elif entry[0] == degree[v]:
                break
        alive[v] = False
        neighbors = list(adjacency[v])
        order.append(vertices[v])
        bags.append(frozenset(vertices[u] for u in neighbors) | {vertices[v]})
        width = max(width, len(neighbors))

        added: list[tuple[int, int]] = []
        for u in neighbors:
            adjacency[u].discard(v)
        for i, a in enumerate(neighbors):
            adjacent_to_a = adjacency[a]
            for b in neighbors[i + 1 :]:
                if b not in adjacent_to_a:
                    adjacent_to_a.add(b)
                    adjacency[b].add(a)
                    added.append((a, b))
        adjacency[v] = set()

        if use_fill:
            # Re-score exactly the vertices whose neighborhood, or whose
            # neighborhood's internal edges, changed: N(v), plus the common
            # neighbors of each added fill edge (they see one fewer missing
            # pair).  Everything else keeps its score, and its heap entries
            # stay valid.
            dirty = set(neighbors)
            for a, b in added:
                dirty |= adjacency[a] & adjacency[b]
            for u in dirty:
                degree[u] = len(adjacency[u])
                fill[u] = _fill_count(adjacency, u)
                heapq.heappush(heap, (fill[u], degree[u], u))
        else:
            for u in neighbors:
                degree[u] = len(adjacency[u])
                heapq.heappush(heap, (degree[u], u))
    return EliminationSweep(order=order, bags=bags, width=width)


def min_degree_sweep(graph: Graph) -> EliminationSweep:
    """The min-degree elimination sweep (ordering, bags, and width together)."""
    return _indexed_sweep(graph, use_fill=False)


def min_fill_sweep(graph: Graph) -> EliminationSweep:
    """The min-fill elimination sweep (ordering, bags, and width together)."""
    return _indexed_sweep(graph, use_fill=True)


def best_heuristic_sweep(graph: Graph) -> EliminationSweep:
    """The better of the min-degree and min-fill sweeps (min-degree on ties).

    The min-degree sweep always runs; the min-fill sweep runs only when the
    min-degree width is above :func:`treewidth_lower_bound`.  The skip is
    exact: the degeneracy is at most the treewidth, which is at most every
    sweep's width, so a min-degree width at that bound is optimal, min-fill
    can at best tie it, and ties go to min-degree.  The selection that
    always runs both sweeps is kept as :func:`repro.structure.reference.
    best_heuristic_sweep_reference`.
    """
    by_degree = min_degree_sweep(graph)
    if by_degree.width <= treewidth_lower_bound(graph):
        return by_degree
    by_fill = min_fill_sweep(graph)
    return by_fill if by_fill.width < by_degree.width else by_degree


def treewidth_lower_bound(graph: Graph) -> int:
    """A cheap treewidth lower bound: the degeneracy of the graph."""
    vertices = list(graph.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = [{index[u] for u in graph.neighbors(v)} for v in vertices]
    alive = [True] * len(vertices)
    degree = [len(neighbors) for neighbors in adjacency]
    heap = [(degree[i], i) for i in range(len(vertices))]
    heapq.heapify(heap)
    degeneracy = 0
    for _ in range(len(vertices)):
        while True:
            current, v = heapq.heappop(heap)
            if alive[v] and current == degree[v]:
                break
        alive[v] = False
        degeneracy = max(degeneracy, degree[v])
        for u in adjacency[v]:
            adjacency[u].discard(v)
            degree[u] -= 1
            heapq.heappush(heap, (degree[u], u))
    return degeneracy


def min_degree_ordering(graph: Graph) -> list[Vertex]:
    """The min-degree heuristic: repeatedly eliminate a vertex of minimum degree."""
    return min_degree_sweep(graph).order


def min_fill_ordering(graph: Graph) -> list[Vertex]:
    """The min-fill heuristic: eliminate the vertex adding fewest fill edges."""
    return min_fill_sweep(graph).order


def min_degree_ordering_with_width(graph: Graph) -> tuple[list[Vertex], int]:
    """The min-degree ordering together with the width it certifies."""
    sweep = min_degree_sweep(graph)
    return sweep.order, sweep.width


def min_fill_ordering_with_width(graph: Graph) -> tuple[list[Vertex], int]:
    """The min-fill ordering together with the width it certifies."""
    sweep = min_fill_sweep(graph)
    return sweep.order, sweep.width


def best_heuristic_ordering(graph: Graph) -> list[Vertex]:
    """The better of the min-degree and min-fill orderings."""
    return best_heuristic_sweep(graph).order


def best_heuristic_ordering_with_width(graph: Graph) -> tuple[list[Vertex], int]:
    """The best heuristic ordering together with the width it certifies."""
    sweep = best_heuristic_sweep(graph)
    return sweep.order, sweep.width


def exists_ordering_of_width(graph: Graph, target: int) -> bool:
    """Decide whether the graph has an elimination ordering of width <= target.

    Depth-first search with memoization on the set of remaining vertices;
    exponential, intended for graphs of at most ~15 vertices.
    """
    failed: set[frozenset[Vertex]] = set()

    # repro-analysis: allow(REC001): depth <= |V| and the search is documented for graphs of at most ~15 vertices
    def recurse(adjacency: dict[Vertex, set[Vertex]]) -> bool:
        if not adjacency:
            return True
        key = frozenset(adjacency)
        if key in failed:
            return False
        # Simplicial-vertex rule: a vertex whose neighborhood is a clique and
        # small enough can always be eliminated first.
        for v in adjacency:
            neighbors = adjacency[v]
            if len(neighbors) <= target and _is_clique(neighbors, adjacency):
                next_adjacency = {u: set(ns) for u, ns in adjacency.items()}
                _eliminate(next_adjacency, v)
                if recurse(next_adjacency):
                    return True
                failed.add(key)
                return False
        for v in sorted(adjacency, key=lambda u: (len(adjacency[u]), element_key(u))):
            if len(adjacency[v]) > target:
                continue
            next_adjacency = {u: set(ns) for u, ns in adjacency.items()}
            _eliminate(next_adjacency, v)
            if recurse(next_adjacency):
                return True
        failed.add(key)
        return False

    return recurse({v: graph.neighbors(v) for v in graph.vertices})


def treewidth_dp_oracle(graph: Graph) -> int:
    """Exact treewidth by the Held–Karp-style dynamic program over vertex sets.

    ``f(S)`` is the least width of an elimination prefix that eliminates
    exactly the vertices of ``S``:

        f(∅) = 0,
        f(S) = min over v in S of max(f(S - v), q(S - v, v)),

    where ``q(S, v)`` counts the vertices outside ``S ∪ {v}`` reachable from
    ``v`` through ``S`` — the degree of ``v`` at elimination time, since
    eliminating ``S`` connects exactly such pairs.  The treewidth is ``f(V)``.

    This is a fully independent computation from the branch-and-bound search
    of :func:`exists_ordering_of_width` (no shared elimination machinery), so
    the test suite uses it as a cross-check oracle.  O(2^n · poly(n)): only
    for graphs of at most ~14 vertices.
    """
    vertices = sorted(graph.vertices, key=element_key)
    n = len(vertices)
    if n == 0:
        return -1
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = [0] * n
    for v in vertices:
        for u in graph.neighbors(v):
            adjacency[index[v]] |= 1 << index[u]

    def elimination_degree(inside: int, v: int) -> int:
        """q(inside, v): neighbors of v outside ``inside`` via paths through it."""
        visited = 1 << v
        stack = [v]
        outside = 0
        while stack:
            u = stack.pop()
            fresh = adjacency[u] & ~visited
            visited |= fresh
            while fresh:
                w = (fresh & -fresh).bit_length() - 1
                fresh &= fresh - 1
                if inside >> w & 1:
                    stack.append(w)
                else:
                    outside |= 1 << w
        return outside.bit_count()

    memo: dict[int, int] = {0: 0}

    # repro-analysis: allow(REC001): memoized DP over vertex bitmasks, depth <= n; the exact oracle is only run on small graphs
    def best_width(subset: int) -> int:
        cached = memo.get(subset)
        if cached is not None:
            return cached
        result = n
        remaining = subset
        while remaining:
            v = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            rest = subset & ~(1 << v)
            result = min(result, max(best_width(rest), elimination_degree(rest, v)))
        memo[subset] = result
        return result

    return best_width((1 << n) - 1)


def _is_clique(candidate: set[Vertex], adjacency: dict[Vertex, set[Vertex]]) -> bool:
    candidates = list(candidate)
    for i, a in enumerate(candidates):
        for b in candidates[i + 1 :]:
            if b not in adjacency[a]:
                return False
    return True


def exact_ordering(graph: Graph) -> list[Vertex]:
    """An elimination ordering of minimum width (exact treewidth).

    Finds the exact width by iterative deepening from a degeneracy-style lower
    bound up to the heuristic upper bound, then reconstructs an ordering
    greedily, only making moves that keep an ordering of that width feasible.
    """
    if len(graph) == 0:
        return []
    _, upper = best_heuristic_ordering_with_width(graph)
    target = upper
    for width in range(0, upper):
        if exists_ordering_of_width(graph, width):
            target = width
            break

    ordering: list[Vertex] = []
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    while adjacency:
        chosen = None
        for v in sorted(adjacency, key=lambda u: (len(adjacency[u]), element_key(u))):
            if len(adjacency[v]) > target:
                continue
            trial = {u: set(ns) for u, ns in adjacency.items()}
            _eliminate(trial, v)
            residual = Graph()
            for u in trial:
                residual.add_vertex(u)
            for u, ns in trial.items():
                for w in ns:
                    residual.add_edge(u, w)
            if exists_ordering_of_width(residual, target):
                chosen = v
                break
        if chosen is None:  # pragma: no cover - cannot happen if target is feasible
            chosen = min(adjacency, key=lambda u: (len(adjacency[u]), element_key(u)))
        ordering.append(chosen)
        _eliminate(adjacency, chosen)
    return ordering
