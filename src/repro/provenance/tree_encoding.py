"""Tree encodings of treelike instances (the Γ-trees of [2], used in Section 6).

A bounded-treewidth instance is encoded as a rooted binary tree whose nodes
carry a *bag* of domain elements (of size at most width + 1) and at most one
fact of the instance whose elements all belong to the bag.  Every fact is
attached to exactly one node (its topmost covering bag), and the bags satisfy
the tree-decomposition conditions, so the occurrences of each element form a
connected subtree.

The provenance constructions (:mod:`repro.provenance.automaton_provenance`)
run bottom-up deterministic automata over these encodings, where the
uncertainty is whether each attached fact is kept or discarded — exactly the
uncertain-tree setting of [2].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.data.gaifman import gaifman_graph
from repro.data.instance import Fact, Instance, fact_key
from repro.errors import DecompositionError
from repro.structure.elimination import EliminationSweep, best_heuristic_sweep
from repro.structure.graph import Graph
from repro.structure.nice import binarize
from repro.structure.path_decomposition import PathDecomposition
from repro.structure.tree_decomposition import TreeDecomposition


@dataclass(frozen=True)
class EncodingNode:
    """A node of a tree encoding: a bag, an optional attached fact, children ids."""

    identifier: int
    bag: frozenset
    fact: Fact | None
    children: tuple[int, ...]


@dataclass
class TreeEncoding:
    """A binary tree encoding of an instance."""

    instance: Instance
    nodes: dict[int, EncodingNode]
    root: int

    @property
    def width(self) -> int:
        return max((len(node.bag) for node in self.nodes.values()), default=0) - 1

    def __len__(self) -> int:
        return len(self.nodes)

    def post_order(self) -> list[int]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            identifier, expanded = stack.pop()
            if expanded:
                order.append(identifier)
            else:
                stack.append((identifier, True))
                for child in reversed(self.nodes[identifier].children):
                    stack.append((child, False))
        return order

    def facts_in_order(self) -> list[Fact]:
        """Facts in post-order of their attachment nodes (a decomposition-derived order)."""
        return [
            self.nodes[identifier].fact
            for identifier in self.post_order()
            if self.nodes[identifier].fact is not None
        ]

    def validate(self) -> None:
        """Check the tree-decomposition conditions and the fact attachment."""
        attached = [node.fact for node in self.nodes.values() if node.fact is not None]
        if sorted(attached, key=fact_key) != sorted(self.instance.facts, key=fact_key):
            raise DecompositionError("attached facts do not match the instance's facts")
        for node in self.nodes.values():
            if node.fact is not None and not set(node.fact.elements()) <= node.bag:
                raise DecompositionError("a fact is attached to a bag not covering it")
            if len(node.children) > 2:
                raise DecompositionError("tree encoding must be binary")
        # connectivity of element occurrences
        parent: dict[int, int | None] = {self.root: None}
        for identifier, node in self.nodes.items():
            for child in node.children:
                parent[child] = identifier
        for element in self.instance.domain:
            occurrences = {i for i, node in self.nodes.items() if element in node.bag}
            if not occurrences:
                raise DecompositionError(f"element {element!r} appears in no bag")
            start = next(iter(occurrences))
            seen = {start}
            stack = [start]
            while stack:
                current = stack.pop()
                neighbors = list(self.nodes[current].children)
                if parent.get(current) is not None:
                    neighbors.append(parent[current])
                for other in neighbors:
                    if other in occurrences and other not in seen:
                        seen.add(other)
                        stack.append(other)
            if seen != occurrences:
                raise DecompositionError(f"occurrences of element {element!r} are not connected")

    def iter_nodes(self) -> Iterator[EncodingNode]:
        return iter(self.nodes.values())


def tree_encoding(
    instance: Instance, decomposition: TreeDecomposition | None = None
) -> TreeEncoding:
    """Build a tree encoding of the instance.

    Each fact is attached to one bag covering it; bags with several facts are
    expanded into chains of nodes carrying one fact each, so the encoding
    stays binary and its size is linear in ``|I| + |decomposition|``.

    Without an explicit decomposition, the encoding is built by the fused
    single-sweep pipeline (:func:`fused_tree_encoding`): the elimination
    sweep that computes the ordering also yields the bags, the tree
    structure, and the fact attachment, with no intermediate decomposition
    rewrites and no validation replay.  With an explicit decomposition, the
    seed semantics are kept (topmost covering bag per fact, inline
    binarization, full validation of the caller-provided decomposition).
    """
    if decomposition is None:
        return fused_tree_encoding(instance)
    return _encoding_from_decomposition(instance, decomposition)


def fused_tree_encoding(
    instance: Instance,
    graph: Graph | None = None,
    sweep: EliminationSweep | None = None,
) -> TreeEncoding:
    """The fused decomposition→encoding pipeline: one elimination sweep.

    The heap-driven sweep (:func:`repro.structure.elimination.
    best_heuristic_sweep`) already records each vertex's bag, so the
    decomposition tree (parent = earliest-eliminated remaining neighbor) and
    the binary encoding are emitted directly from the sweep, bottom-up, in a
    single pass — no ``TreeDecomposition`` object, no ``binarize`` rewrite,
    no relabeling.

    Facts attach to the bag of their earliest-eliminated element: a fact's
    elements form a clique in the Gaifman graph, so when its first element is
    eliminated the remaining ones are all neighbors, i.e. the bag covers the
    fact.  This replaces the seed's scan of every bag per fact.  The
    construction is correct by construction, so no validation replay runs;
    :meth:`TreeEncoding.validate` stays available for auditing.
    """
    if sweep is None:
        sweep = best_heuristic_sweep(gaifman_graph(instance) if graph is None else graph)
    order = sweep.order
    n = len(order)

    nodes: dict[int, EncodingNode] = {}
    counter = 0

    if n == 0:
        # No domain elements: only nullary facts can exist; chain them over a
        # single empty bag (the seed's single-bag decomposition did the same).
        current_children: tuple[int, ...] = ()
        empty = frozenset()
        for f in sorted(instance.facts, key=fact_key):
            nodes[counter] = EncodingNode(counter, empty, f, current_children)
            current_children = (counter,)
            counter += 1
        if not nodes:
            nodes[0] = EncodingNode(0, empty, None, ())
            counter = 1
        return TreeEncoding(instance, nodes, counter - 1)

    position = {v: i for i, v in enumerate(order)}
    root = n - 1
    children = sweep.tree_children()

    facts_at: list[list[Fact]] = [[] for _ in range(n)]
    for f in instance:
        elements = f.elements()
        if elements:
            facts_at[min(position[e] for e in elements)].append(f)
        else:
            facts_at[root].append(f)

    # Children always carry a smaller elimination index than their parent, so
    # one ascending pass emits every subtree before it is consumed.
    encoded_root: list[int] = [0] * n
    for i in range(n):
        bag = sweep.bags[i]
        child_ids = [encoded_root[c] for c in children[i]]
        # Inline binarization: absorb surplus children into helper nodes that
        # repeat the same bag (connectivity of occurrences is preserved).
        while len(child_ids) > 2:
            nodes[counter] = EncodingNode(counter, bag, None, (child_ids[-2], child_ids[-1]))
            child_ids[-2:] = [counter]
            counter += 1
        current_children = tuple(child_ids)
        facts = sorted(facts_at[i], key=fact_key)
        if not facts:
            nodes[counter] = EncodingNode(counter, bag, None, current_children)
            current_children = (counter,)
            counter += 1
        else:
            for f in facts:
                nodes[counter] = EncodingNode(counter, bag, f, current_children)
                current_children = (counter,)
                counter += 1
        encoded_root[i] = counter - 1
    return TreeEncoding(instance, nodes, encoded_root[root])


def _encoding_from_decomposition(
    instance: Instance, decomposition: TreeDecomposition
) -> TreeEncoding:
    """Encode against a caller-provided decomposition (seed semantics).

    Facts attach to their topmost covering bag, found through a per-element
    occurrence index instead of the seed's scan over every bag per fact; the
    result is validated, since the input decomposition is not trusted.
    """
    decomposition = binarize(decomposition)

    order = decomposition.topological_order()
    position = {node: index for index, node in enumerate(order)}
    occurrences: dict[object, list[int]] = {}
    for node in order:
        for element in decomposition.bags[node]:
            occurrences.setdefault(element, []).append(node)
    facts_at: dict[int, list[Fact]] = {node: [] for node in decomposition.nodes()}
    for f in instance:
        elements = set(f.elements())
        if elements:
            rarest = min(elements, key=lambda e: len(occurrences.get(e, ())))
            covering = [
                node
                for node in occurrences.get(rarest, ())
                if elements <= decomposition.bags[node]
            ]
        else:
            covering = order
        if not covering:
            raise DecompositionError(f"no bag covers fact {f}")
        topmost = min(covering, key=lambda node: position[node])
        facts_at[topmost].append(f)

    nodes: dict[int, EncodingNode] = {}
    counter = 0
    built: dict[int, int] = {}
    # Reversed pre-order visits children before parents (no recursion).
    for bag_node in reversed(order):
        bag = decomposition.bags[bag_node]
        child_ids = tuple(built[child] for child in decomposition.children.get(bag_node, []))
        facts = sorted(facts_at[bag_node], key=fact_key)
        if not facts:
            nodes[counter] = EncodingNode(counter, bag, None, child_ids)
            built[bag_node] = counter
            counter += 1
        else:
            current_children = child_ids
            for f in facts:
                nodes[counter] = EncodingNode(counter, bag, f, current_children)
                current_children = (counter,)
                counter += 1
            built[bag_node] = counter - 1

    encoding = TreeEncoding(instance, nodes, built[decomposition.root])
    encoding.validate()
    return encoding


def path_encoding(instance: Instance, decomposition: PathDecomposition | None = None) -> TreeEncoding:
    """A tree encoding whose tree is a path, from a path decomposition.

    Used for the bounded-pathwidth results (Theorem 6.7 / Proposition 6.8):
    running the provenance construction over a path encoding yields
    bounded-pathwidth circuits and constant-width OBDDs.
    """
    from repro.structure.path_decomposition import path_decomposition as compute_path

    if decomposition is None:
        decomposition = compute_path(gaifman_graph(instance))
    return tree_encoding(instance, decomposition.to_tree_decomposition())
