"""Variable orders on facts derived from instance decompositions.

The OBDD results of Section 6 rely on variable orders that follow a tree or
path decomposition of the instance: facts are enumerated in the order of the
first bag (in a pre-order traversal, resp. left-to-right along the path) whose
elements cover the fact.  Under such an order, the number of "live" facts
whose status the OBDD must remember at any prefix is governed by the
decomposition width, which is what yields polynomial-size OBDDs on bounded
treewidth (Theorem 6.5) and constant-width OBDDs on bounded pathwidth
(Theorem 6.7).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.data.gaifman import gaifman_graph
from repro.data.instance import Fact, Instance
from repro.errors import CompilationError
from repro.structure.path_decomposition import PathDecomposition, path_decomposition
from repro.structure.tree_decomposition import TreeDecomposition, tree_decomposition


def fact_order_from_tree_decomposition(
    instance: Instance, decomposition: TreeDecomposition | None = None
) -> list[Fact]:
    """Facts ordered by the pre-order position of their topmost covering bag."""
    if decomposition is None:
        decomposition = tree_decomposition(gaifman_graph(instance))
    bags = [decomposition.bags[node] for node in decomposition.topological_order()]
    return _order_by_first_covering_bag(instance, bags)


def fact_order_from_path_decomposition(
    instance: Instance, decomposition: PathDecomposition | None = None
) -> list[Fact]:
    """Facts ordered by the first path bag that covers them (left to right)."""
    if decomposition is None:
        decomposition = path_decomposition(gaifman_graph(instance))
    return _order_by_first_covering_bag(instance, decomposition.bags)


def _order_by_first_covering_bag(instance: Instance, bags: Sequence[frozenset]) -> list[Fact]:
    """Facts sorted by the index of the first bag covering them, then by fact key.

    No bag before the latest first occurrence among a fact's elements can
    cover it, so the scan starts there.  When ``bags`` is a valid path
    decomposition, or a valid tree decomposition in pre-order, of the
    instance's Gaifman graph, the fact's elements are pairwise adjacent, so
    their occurrence intervals (subtrees) pairwise meet and, by the Helly
    property, all contain that starting bag: the first probe covers the
    fact, and placement costs O(arity) per fact instead of a scan of every
    bag.  Any other input falls through to the scan, which is exact.
    """
    first: dict[Any, int] = {}
    for position, bag in enumerate(bags):
        for element in bag:
            first.setdefault(element, position)
    placement: dict[Fact, int] = {}
    for f in instance:
        start = max((first.get(a, len(bags)) for a in f.arguments), default=0)
        covering = next(
            (i for i in range(start, len(bags)) if bags[i].issuperset(f.arguments)), None
        )
        if covering is None:
            raise CompilationError(f"no bag covers the fact {f}")
        placement[f] = covering
    return sorted(instance.facts, key=lambda f: (placement[f], _fact_key(f)))


def default_fact_order(
    instance: Instance,
    path: PathDecomposition | None = None,
    tree: TreeDecomposition | None = None,
) -> list[Fact]:
    """The library's default order: along a path decomposition when it is thin,
    otherwise along a tree decomposition.

    Precomputed decompositions may be passed to avoid recomputing them; this
    is how :class:`repro.engine.CompilationEngine` reuses its cached
    structural artifacts.
    """
    if path is None or tree is None:
        graph = gaifman_graph(instance)
        if path is None:
            path = path_decomposition(graph)
        if tree is None:
            tree = tree_decomposition(graph)
    if path.width <= max(tree.width * 2, tree.width + 1):
        return fact_order_from_path_decomposition(instance, path)
    return fact_order_from_tree_decomposition(instance, tree)


def element_major_order(instance: Instance, element_order: Sequence[Any]) -> list[Fact]:
    """Facts ordered by the last of their elements in a given element order.

    This is the order used by the inversion-free / unfolding experiments,
    where the element order comes from the prefix structure of the unfolded
    domain (Section 9)."""
    rank = {element: index for index, element in enumerate(element_order)}
    missing = [f for f in instance if any(a not in rank for a in f.elements())]
    if missing:
        raise CompilationError("element order does not cover all fact elements")
    return sorted(
        instance.facts,
        key=lambda f: (max(rank[a] for a in f.elements()), _fact_key(f)),
    )


def _fact_key(f: Fact) -> tuple:
    return (f.relation, tuple(repr(a) for a in f.arguments))
