"""Clique-width expressions (k-expressions) and dynamic programming over them.

Section 5.1 of the paper observes that its dichotomy needs the instance
family to be subinstance-closed: the class of cliques has unbounded treewidth
but *bounded clique-width*, so MSO model checking stays linear on it [15].
This module provides the clique-width substrate needed to exercise that
discussion:

* a small algebra of k-expressions -- create a labelled vertex, disjoint
  union, relabel, add all edges between two labels -- with evaluation to
  :class:`repro.structure.graph.Graph`;
* ready-made expressions of width 2 for cliques, complete bipartite graphs
  and cographs, and of width 3 for paths (whose treewidth is 1 but which make
  handy sanity checks);
* bottom-up dynamic programming over a k-expression for representative
  MSO-expressible tasks: edge counting, maximum independent set and
  independent-set counting (the same quantity the treewidth DP of
  :mod:`repro.counting.match_counting` computes, so the two substrates can be
  cross-checked).

The DP state spaces are exponential in the number of labels only, matching
the fixed-parameter tractability in clique-width that [15] establishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.errors import DecompositionError
from repro.structure.graph import Graph

Label = Hashable
Vertex = Any


@dataclass(frozen=True)
class CliqueWidthExpression:
    """A node of a k-expression.

    ``kind`` is one of ``create``, ``union``, ``relabel``, ``add_edges``;
    the remaining fields are used depending on the kind (see the constructor
    helpers below, which are the intended API).
    """

    kind: str
    label: Label | None = None
    vertex: Vertex | None = None
    children: tuple["CliqueWidthExpression", ...] = ()
    source_label: Label | None = None
    target_label: Label | None = None

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def create(label: Label, vertex: Vertex) -> "CliqueWidthExpression":
        """A single vertex carrying ``label``."""
        return CliqueWidthExpression("create", label=label, vertex=vertex)

    @staticmethod
    def union(
        left: "CliqueWidthExpression", right: "CliqueWidthExpression"
    ) -> "CliqueWidthExpression":
        """The disjoint union of two labelled graphs."""
        return CliqueWidthExpression("union", children=(left, right))

    @staticmethod
    def relabel(
        child: "CliqueWidthExpression", old: Label, new: Label
    ) -> "CliqueWidthExpression":
        """Rename every vertex labelled ``old`` to ``new``."""
        return CliqueWidthExpression("relabel", children=(child,), source_label=old, target_label=new)

    @staticmethod
    def add_edges(
        child: "CliqueWidthExpression", source: Label, target: Label
    ) -> "CliqueWidthExpression":
        """Add every edge between a ``source``-labelled and a ``target``-labelled vertex."""
        if source == target:
            raise DecompositionError("add_edges needs two distinct labels")
        return CliqueWidthExpression(
            "add_edges", children=(child,), source_label=source, target_label=target
        )

    # -- structure ----------------------------------------------------------------

    def subexpressions(self) -> Iterator["CliqueWidthExpression"]:
        """All nodes of the expression tree, children before parents.

        Iterative post-order: chain-shaped k-expressions (every ``relabel``/
        ``add_edges`` chain) are as deep as the graph is large.
        """
        stack: list[tuple["CliqueWidthExpression", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))

    def labels(self) -> frozenset[Label]:
        """All labels mentioned anywhere in the expression."""
        used: set[Label] = set()
        for node in self.subexpressions():
            if node.kind == "create":
                used.add(node.label)
            elif node.kind == "relabel":
                used.update((node.source_label, node.target_label))
            elif node.kind == "add_edges":
                used.update((node.source_label, node.target_label))
        return frozenset(used)

    @property
    def width(self) -> int:
        """The number of distinct labels (the k of the k-expression)."""
        return len(self.labels())

    def size(self) -> int:
        """Number of operations in the expression."""
        return sum(1 for _ in self.subexpressions())

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices created anywhere in the expression (mirrors :class:`Graph`)."""
        return tuple(
            node.vertex for node in self.subexpressions() if node.kind == "create"
        )

    def validate(self) -> None:
        """Check well-formedness: distinct created vertices, known kinds."""
        seen: set[Vertex] = set()
        for node in self.subexpressions():
            if node.kind == "create":
                if node.vertex in seen:
                    raise DecompositionError(
                        f"vertex {node.vertex!r} is created twice in the k-expression"
                    )
                seen.add(node.vertex)
            elif node.kind == "union":
                if len(node.children) != 2:
                    raise DecompositionError("union nodes need exactly two children")
            elif node.kind in ("relabel", "add_edges"):
                if len(node.children) != 1:
                    raise DecompositionError(f"{node.kind} nodes need exactly one child")
            else:
                raise DecompositionError(f"unknown k-expression operation {node.kind!r}")

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self) -> tuple[Graph, dict[Vertex, Label]]:
        """The labelled graph denoted by the expression."""
        self.validate()
        graph, labelling = self._evaluate()
        return graph, labelling

    def _evaluate(self) -> tuple[Graph, dict[Vertex, Label]]:
        # Iterative post-order with a value stack: relabel/add_edges chains
        # are as deep as the graph is large, so the natural recursion would
        # overflow on deep expressions such as path_expression(2000).
        values: list[tuple[Graph, dict[Vertex, Label]]] = []
        stack: list[tuple["CliqueWidthExpression", bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if not expanded:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
                continue
            if node.kind == "create":
                graph = Graph()
                graph.add_vertex(node.vertex)
                values.append((graph, {node.vertex: node.label}))
            elif node.kind == "union":
                right_graph, right_labels = values.pop()
                left_graph, left_labels = values.pop()
                shared = set(left_labels) & set(right_labels)
                if shared:
                    raise DecompositionError(
                        f"disjoint union reuses vertices {sorted(map(repr, shared))[:3]}"
                    )
                merged = left_graph.copy()
                for vertex in right_graph.vertices:
                    merged.add_vertex(vertex)
                for u, v in right_graph.edges():
                    merged.add_edge(u, v)
                values.append((merged, {**left_labels, **right_labels}))
            elif node.kind == "relabel":
                graph, labelling = values.pop()
                values.append(
                    (
                        graph,
                        {
                            vertex: (
                                node.target_label
                                if label == node.source_label
                                else label
                            )
                            for vertex, label in labelling.items()
                        },
                    )
                )
            else:
                # add_edges
                graph, labelling = values.pop()
                result = graph.copy()
                sources = [v for v, label in labelling.items() if label == node.source_label]
                targets = [v for v, label in labelling.items() if label == node.target_label]
                for u in sources:
                    for v in targets:
                        if u != v:
                            result.add_edge(u, v)
                values.append((result, labelling))
        return values.pop()

    def to_graph(self) -> Graph:
        return self.evaluate()[0]

    def __str__(self) -> str:
        if self.kind == "create":
            return f"{self.label}({self.vertex})"
        if self.kind == "union":
            return f"({self.children[0]} ⊕ {self.children[1]})"
        if self.kind == "relabel":
            return f"ρ_{self.source_label}→{self.target_label}({self.children[0]})"
        return f"η_{self.source_label},{self.target_label}({self.children[0]})"


# -- ready-made expressions -----------------------------------------------------------------


def clique_expression(n: int) -> CliqueWidthExpression:
    """A width-2 expression for the n-clique (the Section 5.1 counterexample family)."""
    if n <= 0:
        raise DecompositionError("a clique needs at least one vertex")
    expression = CliqueWidthExpression.create(1, "v0")
    for index in range(1, n):
        fresh = CliqueWidthExpression.create(2, f"v{index}")
        expression = CliqueWidthExpression.union(expression, fresh)
        expression = CliqueWidthExpression.add_edges(expression, 1, 2)
        expression = CliqueWidthExpression.relabel(expression, 2, 1)
    return expression


def complete_bipartite_expression(m: int, n: int) -> CliqueWidthExpression:
    """A width-2 expression for K_{m,n} (the Proposition 8.9 family)."""
    if m <= 0 or n <= 0:
        raise DecompositionError("both sides of a complete bipartite graph must be non-empty")
    left = CliqueWidthExpression.create(1, "l0")
    for index in range(1, m):
        left = CliqueWidthExpression.union(left, CliqueWidthExpression.create(1, f"l{index}"))
    right = CliqueWidthExpression.create(2, "r0")
    for index in range(1, n):
        right = CliqueWidthExpression.union(right, CliqueWidthExpression.create(2, f"r{index}"))
    together = CliqueWidthExpression.union(left, right)
    return CliqueWidthExpression.add_edges(together, 1, 2)


def path_expression(n: int) -> CliqueWidthExpression:
    """A width-3 expression for the n-vertex path (labels: done / frontier / fresh)."""
    if n <= 0:
        raise DecompositionError("a path needs at least one vertex")
    expression = CliqueWidthExpression.create(2, "v0")
    for index in range(1, n):
        fresh = CliqueWidthExpression.create(3, f"v{index}")
        expression = CliqueWidthExpression.union(expression, fresh)
        expression = CliqueWidthExpression.add_edges(expression, 2, 3)
        expression = CliqueWidthExpression.relabel(expression, 2, 1)
        expression = CliqueWidthExpression.relabel(expression, 3, 2)
    return expression


def cograph_expression(structure, prefix: str = "v") -> CliqueWidthExpression:
    """A width-2 expression for a cograph given as a nested cotree.

    The cotree is a nested structure: a leaf is any hashable vertex name, an
    internal node is ``("union", children)`` or ``("join", children)`` with
    ``children`` a sequence of cotrees.  Joins add all edges across their
    children, which is exactly what width-2 expressions can express.
    """
    counter = [0]

    # repro-analysis: allow(REC001): depth equals the caller-supplied cotree nesting, which mirrors the recursion already spent building that literal
    def build(node) -> CliqueWidthExpression:
        if isinstance(node, tuple) and len(node) == 2 and node[0] in ("union", "join"):
            operation, children = node
            if not children:
                raise DecompositionError("cotree nodes need at least one child")
            parts = [build(child) for child in children]
            expression = parts[0]
            for part in parts[1:]:
                # Keep the accumulated part on label 1 and the new part on label 2.
                relabelled = CliqueWidthExpression.relabel(part, 1, 2)
                expression = CliqueWidthExpression.union(expression, relabelled)
                if operation == "join":
                    expression = CliqueWidthExpression.add_edges(expression, 1, 2)
                expression = CliqueWidthExpression.relabel(expression, 2, 1)
            return expression
        counter[0] += 1
        return CliqueWidthExpression.create(1, f"{prefix}{counter[0]}_{node}")

    return build(structure)


# -- dynamic programming over k-expressions ----------------------------------------------------


def count_edges(expression: CliqueWidthExpression) -> int:
    """The number of edges of the denoted graph.

    ``add_edges`` operations may overlap (the same pair of label classes can
    be connected twice), so the count is read off the evaluated graph rather
    than accumulated per operation.
    """
    return expression.to_graph().edge_count()


def maximum_independent_set(expression: CliqueWidthExpression) -> int:
    """The maximum size of an independent set, by DP over the k-expression.

    The state of a subexpression maps each *label profile* -- the set of
    labels that contain at least one selected vertex -- to the maximum number
    of selected vertices achieving it.  ``add_edges(a, b)`` kills every
    profile containing both ``a`` and ``b``; ``union`` combines profiles
    additively; ``relabel`` merges profiles.  The state space is at most
    2^k per node, the fixed-parameter bound of [15].
    """
    expression.validate()
    states = _independent_set_states(expression, count_models=False)
    return max(states.values(), default=0)


def count_independent_sets(expression: CliqueWidthExpression) -> int:
    """The number of independent sets (including the empty one) of the denoted graph."""
    expression.validate()
    states = _independent_set_states(expression, count_models=True)
    return sum(states.values())


def _independent_set_states(
    expression: CliqueWidthExpression, count_models: bool
) -> dict[frozenset, int]:
    """Bottom-up DP: label profile of the selection -> best size or model count."""

    def combine(left: dict[frozenset, int], right: dict[frozenset, int]) -> dict[frozenset, int]:
        result: dict[frozenset, int] = {}
        for left_profile, left_value in left.items():
            for right_profile, right_value in right.items():
                profile = left_profile | right_profile
                value = left_value + right_value if not count_models else left_value * right_value
                if count_models:
                    result[profile] = result.get(profile, 0) + value
                else:
                    result[profile] = max(result.get(profile, -1), value)
        return result

    # Iterative post-order with a value stack: relabel/add_edges chains are as
    # deep as the graph is large, so the natural recursion would overflow.
    values: list[dict[frozenset, int]] = []
    stack: list[tuple[CliqueWidthExpression, bool]] = [(expression, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
            continue
        if node.kind == "create":
            empty_value = 1 if count_models else 0
            values.append({frozenset(): empty_value, frozenset({node.label}): 1})
        elif node.kind == "union":
            right = values.pop()
            left = values.pop()
            values.append(combine(left, right))
        elif node.kind == "relabel":
            child_states = values.pop()
            result: dict[frozenset, int] = {}
            for profile, value in child_states.items():
                renamed = frozenset(
                    node.target_label if label == node.source_label else label
                    for label in profile
                )
                if count_models:
                    result[renamed] = result.get(renamed, 0) + value
                else:
                    result[renamed] = max(result.get(renamed, -1), value)
            values.append(result)
        else:
            # add_edges: selections touching both endpoint labels are no
            # longer independent.
            child_states = values.pop()
            values.append(
                {
                    profile: value
                    for profile, value in child_states.items()
                    if not (node.source_label in profile and node.target_label in profile)
                }
            )
    return values.pop()


def expression_from_graph(graph: Graph, max_width: int = 8) -> CliqueWidthExpression:
    """A (not necessarily optimal) k-expression for an arbitrary graph.

    Uses the trivial construction that gives every vertex its own label,
    unions them and adds the edges label-pair by label-pair: the width equals
    the number of vertices, so this is only useful for small graphs (as an
    exact reference for tests) and is rejected above ``max_width`` vertices.
    """
    vertices = list(graph.vertices)
    if not vertices:
        raise DecompositionError("cannot build a k-expression for the empty graph")
    if len(vertices) > max_width:
        raise DecompositionError(
            f"trivial k-expression would use {len(vertices)} labels (> {max_width})"
        )
    labels = {vertex: index + 1 for index, vertex in enumerate(vertices)}
    expression = CliqueWidthExpression.create(labels[vertices[0]], vertices[0])
    for vertex in vertices[1:]:
        expression = CliqueWidthExpression.union(
            expression, CliqueWidthExpression.create(labels[vertex], vertex)
        )
    for u, v in graph.edges():
        expression = CliqueWidthExpression.add_edges(expression, labels[u], labels[v])
    return expression
