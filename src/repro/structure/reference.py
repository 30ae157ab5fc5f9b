"""Seed structural heuristics, kept as differential oracles.

The structural front-end runs as indexed, heap-driven kernels: the
lazily-updated degree / fill-count orderings and the fused elimination sweep
of :mod:`repro.structure.elimination`, and the lazy-heap greedy path order
and interval-indexed validation of :mod:`repro.structure.path_decomposition`.
This module preserves the *seed* algorithms — the per-step linear scan of
min-degree, the per-step full ``fill_in`` rescan of min-fill, the
decomposition builder that re-runs the elimination and re-validates the
result, the greedy path order that re-scores every remaining vertex at every
step, and the path-decomposition check that scans every bag per edge and per
vertex — in their original form, for two purposes:

* **differential testing**: the property suite checks that the indexed
  kernels pick exactly the same vertices (identical tie-breaking), hence
  certify exactly the same widths, and that the interval check rejects
  exactly what the bag scans reject, on randomized graph families
  (``tests/test_structure_kernels.py``);
* **benchmarking**: ``benchmarks/bench_structure.py`` measures the fused
  front-end and the path-order pipeline against these seed paths and gates
  CI on their speedups.

Everything here intentionally inherits the seed's complexity: min-fill
recomputes every fill count from scratch on every elimination step, and
``best_heuristic_ordering_seed`` re-runs :func:`ordering_width_seed` over
both candidate orderings.

``best_heuristic_sweep_reference`` is the indexed selection before it
learnt to skip min-fill: it always runs both sweeps and keeps the narrower,
min-degree on ties.  :func:`repro.structure.elimination.best_heuristic_sweep`
must return the same sweep (order, bags and width) on every graph.

Do not use these from production code paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DecompositionError
from repro.structure.elimination import EliminationSweep, min_degree_sweep, min_fill_sweep
from repro.structure.graph import Graph, Vertex
from repro.structure.path_decomposition import PathDecomposition
from repro.structure.tree_decomposition import BagId, TreeDecomposition

__all__ = [
    "best_heuristic_ordering_seed",
    "best_heuristic_sweep_reference",
    "decomposition_from_ordering_seed",
    "greedy_path_order_seed",
    "min_degree_ordering_seed",
    "min_fill_ordering_seed",
    "ordering_width_seed",
    "path_decomposition_seed",
    "validate_path_decomposition_seed",
]


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


def ordering_width_seed(graph: Graph, ordering: Sequence[Vertex]) -> int:
    """The seed width computation: one full elimination replay."""
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    width = 0
    for v in ordering:
        width = max(width, _eliminate(adjacency, v))
    return width


def min_degree_ordering_seed(graph: Graph) -> list[Vertex]:
    """The seed min-degree heuristic: a linear scan for the minimum each step."""
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    ordering: list[Vertex] = []
    while adjacency:
        v = min(adjacency, key=lambda u: (len(adjacency[u]), _stable_key(u)))
        ordering.append(v)
        _eliminate(adjacency, v)
    return ordering


def min_fill_ordering_seed(graph: Graph) -> list[Vertex]:
    """The seed min-fill heuristic: every fill count recomputed every step."""
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}

    def fill_in(v: Vertex) -> int:
        neighbors = list(adjacency[v])
        missing = 0
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1 :]:
                if b not in adjacency[a]:
                    missing += 1
        return missing

    ordering: list[Vertex] = []
    while adjacency:
        v = min(adjacency, key=lambda u: (fill_in(u), len(adjacency[u]), _stable_key(u)))
        ordering.append(v)
        _eliminate(adjacency, v)
    return ordering


def best_heuristic_ordering_seed(graph: Graph) -> list[Vertex]:
    """The seed selection: re-run ``ordering_width`` over both candidates."""
    candidates = [min_degree_ordering_seed(graph), min_fill_ordering_seed(graph)]
    return min(candidates, key=lambda order: ordering_width_seed(graph, order))


def best_heuristic_sweep_reference(graph: Graph) -> EliminationSweep:
    """Both indexed sweeps, always: the narrower wins, min-degree on ties."""
    candidates = [min_degree_sweep(graph), min_fill_sweep(graph)]
    return min(candidates, key=lambda sweep: sweep.width)


def decomposition_from_ordering_seed(
    graph: Graph, ordering: Sequence[Vertex]
) -> TreeDecomposition:
    """The seed decomposition builder: a second elimination replay plus a full
    ``validate`` pass (quadratic in the instance size)."""
    vertices = list(ordering)
    if set(vertices) != set(graph.vertices):
        raise DecompositionError("ordering must contain every vertex exactly once")
    if not vertices:
        return TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)

    position = {v: i for i, v in enumerate(vertices)}
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    bag_of: dict[Vertex, frozenset] = {}
    for v in vertices:
        neighbors = adjacency.pop(v)
        for u in neighbors:
            adjacency[u].discard(v)
        bag_of[v] = frozenset({v} | neighbors)
        neighbor_list = list(neighbors)
        for i, a in enumerate(neighbor_list):
            for b in neighbor_list[i + 1 :]:
                adjacency[a].add(b)
                adjacency[b].add(a)

    ids = {v: i for i, v in enumerate(vertices)}
    children: dict[BagId, list[BagId]] = {i: [] for i in range(len(vertices))}
    root = ids[vertices[-1]]
    for v in vertices[:-1]:
        later_neighbors = [u for u in bag_of[v] if u != v and position[u] > position[v]]
        if later_neighbors:
            parent_vertex = min(later_neighbors, key=lambda u: position[u])
            children[ids[parent_vertex]].append(ids[v])
        else:
            if ids[v] != root:
                children[root].append(ids[v])
    bags = {ids[v]: bag_of[v] for v in vertices}
    decomposition = TreeDecomposition(bags=bags, children=children, root=root)
    decomposition.validate(graph)
    return decomposition


def greedy_path_order_seed(graph: Graph) -> list[Vertex]:
    """The seed greedy path order: every remaining vertex re-scored per step."""
    remaining = set(graph.vertices)
    placed: list[Vertex] = []
    active: set[Vertex] = set()
    while remaining:
        def cost(v: Vertex) -> tuple[int, int, tuple]:
            new_active = (active | {v})
            new_active = {
                u
                for u in new_active
                if any(w in remaining and w != v for w in graph.neighbors(u))
            }
            return (len(new_active), len(graph.neighbors(v) & remaining), _stable_key(v))

        best = min(remaining, key=cost)
        placed.append(best)
        remaining.discard(best)
        active.add(best)
        active = {u for u in active if graph.neighbors(u) & remaining}
    return placed


def validate_path_decomposition_seed(decomposition: PathDecomposition, graph: Graph) -> None:
    """The seed path-decomposition check: a scan of every bag per edge and
    per vertex (O(E·bags))."""
    bags = decomposition.bags
    covered = set()
    for bag in bags:
        covered |= bag
    if set(graph.vertices) - covered:
        raise DecompositionError("path decomposition does not cover all vertices")
    for u, v in graph.edges():
        if not any(u in bag and v in bag for bag in bags):
            raise DecompositionError(f"edge ({u!r}, {v!r}) not covered")
    for vertex in graph.vertices:
        indices = [i for i, bag in enumerate(bags) if vertex in bag]
        if indices and indices != list(range(indices[0], indices[-1] + 1)):
            raise DecompositionError(f"occurrences of {vertex!r} are not contiguous")


def path_decomposition_seed(graph: Graph) -> PathDecomposition:
    """The seed heuristic path decomposition: the full-rescan greedy order,
    the bags it induces, and the bag-scan validation."""
    if len(graph) == 0:
        return PathDecomposition([frozenset()])
    order = greedy_path_order_seed(graph)
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
    validate_path_decomposition_seed(decomposition, graph)
    return decomposition


def _stable_key(vertex: Vertex) -> tuple[str, str]:
    return (type(vertex).__name__, repr(vertex))
