"""MSO match counting on treelike instances (Section 5.3, Theorem 5.7).

The match-counting problem asks, for an MSO formula q(X) with a free
second-order variable, how many interpretations A of X make the instance
satisfy q(A).  The upper bound of Theorem 5.7 (from [4]) is that this is
ra-linear on bounded-treewidth instances.

We instantiate the machinery on the classical representative used throughout
the literature: counting the sets A that are *independent sets* of the
instance's Gaifman graph (the formula q(X) saying "no two adjacent elements
are both in X").  Two implementations are provided:

* brute force over all subsets of the domain (the oracle);
* dynamic programming over a tree decomposition, linear in the instance for
  fixed width, exactly the Theorem 5.7 upper-bound algorithm specialized to
  this q.

A generic brute-force counter for arbitrary set predicates is also exposed for
experimentation with other MSO properties.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.data.gaifman import gaifman_graph
from repro.data.instance import Instance
from repro.structure.graph import Graph, element_key
from repro.structure.tree_decomposition import TreeDecomposition, tree_decomposition


def count_assignments_brute_force(
    instance: Instance, predicate: Callable[[Instance, frozenset], bool]
) -> int:
    """Count subsets A of the domain with predicate(instance, A) true (exponential)."""
    domain = list(instance.domain)
    if len(domain) > 20:
        raise ValueError("too many domain elements for brute-force assignment counting")
    count = 0
    for mask in range(1 << len(domain)):
        subset = frozenset(domain[i] for i in range(len(domain)) if mask >> i & 1)
        if predicate(instance, subset):
            count += 1
    return count


def is_independent_set(graph: Graph, subset: Iterable[Any]) -> bool:
    chosen = set(subset)
    return all(not (u in chosen and v in chosen) for u, v in graph.edges())


def count_independent_sets_brute_force(instance: Instance) -> int:
    graph = gaifman_graph(instance)
    return count_assignments_brute_force(
        instance, lambda _, subset: is_independent_set(graph, subset)
    )


def count_independent_sets_treewidth_dp(
    instance: Instance, decomposition: TreeDecomposition | None = None
) -> int:
    """Count independent sets of the Gaifman graph by DP over a tree decomposition.

    State at a bag: the subset of bag vertices chosen to be in A.  Each vertex
    is "decided" at every bag containing it, consistently, and counted exactly
    once thanks to the standard introduce/forget bookkeeping: when combining a
    child, assignments must agree on the shared vertices, and vertices private
    to the child's subtree have already been summed out.
    """
    graph = gaifman_graph(instance)
    if len(graph) == 0:
        return 1
    if decomposition is None:
        decomposition = tree_decomposition(graph)

    def solve(node: int) -> dict[frozenset, int]:
        bag = decomposition.bags[node]
        bag_list = sorted(bag, key=element_key)
        # All independent assignments of the bag itself.
        states: dict[frozenset, int] = {}
        for mask in range(1 << len(bag_list)):
            chosen = frozenset(bag_list[i] for i in range(len(bag_list)) if mask >> i & 1)
            if is_independent_set(graph.subgraph(bag), chosen):
                states[chosen] = 1
        for child in decomposition.children.get(node, []):
            child_states = solve(child)
            child_bag = decomposition.bags[child]
            shared = bag & child_bag
            # Sum the child's counts by the assignment of the shared vertices.
            summed: dict[frozenset, int] = {}
            for child_chosen, count in child_states.items():
                key = frozenset(child_chosen & shared)
                summed[key] = summed.get(key, 0) + count
            merged: dict[frozenset, int] = {}
            for chosen, count in states.items():
                key = frozenset(chosen & shared)
                if key in summed:
                    merged[chosen] = merged.get(chosen, 0) + count * summed[key]
            states = merged
        return states

    # Vertices not covered by the root bag have been summed out along the way;
    # the answer is the sum over root-bag assignments.
    root_states = solve(decomposition.root)
    counted = set()
    for bag in decomposition.bags.values():
        counted |= bag
    uncovered = set(graph.vertices) - counted
    result = sum(root_states.values())
    return result << len(uncovered)


def count_independent_sets(instance: Instance, method: str = "treewidth") -> int:
    """Count independent sets of the instance's Gaifman graph."""
    if method == "brute_force":
        return count_independent_sets_brute_force(instance)
    if method == "treewidth":
        return count_independent_sets_treewidth_dp(instance)
    raise ValueError(f"unknown counting method {method!r}")


def count_dominating_sets_brute_force(instance: Instance) -> int:
    """Count dominating sets (another MSO-definable match-counting example)."""
    graph = gaifman_graph(instance)

    def dominating(_, subset: frozenset) -> bool:
        chosen = set(subset)
        return all(v in chosen or (graph.neighbors(v) & chosen) for v in graph.vertices)

    return count_assignments_brute_force(instance, dominating)
