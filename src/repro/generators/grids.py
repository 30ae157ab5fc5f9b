"""Grid-shaped instance generators (the unbounded-treewidth families).

Grids are the canonical treewidth-constructible unbounded-treewidth family
(Definition 4.1): the k x k grid has treewidth k and polynomial size.  They
appear as the hard families in Theorems 4.2, 5.2, 8.1, as the "S-grids" that
make the RST query easy (Section 8.2), and as the complete bipartite and
skewed-grid variants of Sections 8.2 and 8.3.
"""

from __future__ import annotations

from typing import Any

from repro.data.instance import Fact, Instance
from repro.data.signature import Signature
from repro.structure.graph import Graph, element_key, grid_graph


def grid_instance(rows: int, cols: int, relation: str = "E", symmetric: bool = False) -> Instance:
    """The rows x cols grid as a relational instance with one binary relation.

    With ``symmetric=True`` both orientations of each edge are included (the
    paper's undirected-graph encoding); by default one canonical orientation
    per edge is used, which keeps lineages smaller while leaving the Gaifman
    graph (hence the treewidth) unchanged.
    """
    facts: list[Fact] = []
    for r in range(rows):
        for c in range(cols):
            here = f"v{r}_{c}"
            if r + 1 < rows:
                below = f"v{r + 1}_{c}"
                facts.append(Fact(relation, (here, below)))
                if symmetric:
                    facts.append(Fact(relation, (below, here)))
            if c + 1 < cols:
                right = f"v{r}_{c + 1}"
                facts.append(Fact(relation, (here, right)))
                if symmetric:
                    facts.append(Fact(relation, (right, here)))
    return Instance(facts, Signature([(relation, 2)]))


def s_grid_instance(rows: int, cols: int) -> Instance:
    """The "S-grid" family of Section 8.2: a grid with only S edges.

    On this unbounded-treewidth family, the unsafe query R(x), S(x, y), T(y)
    is trivially false (no R or T facts), so it has constant-width OBDDs —
    the counterexample showing that unsafety alone does not imply intricacy.
    """
    grid = grid_instance(rows, cols, relation="S")
    return Instance(grid.facts, Signature([("R", 1), ("S", 2), ("T", 1)]))


def graph_to_instance(graph: Graph, relation: str = "E", symmetric: bool = False) -> Instance:
    """Encode an undirected graph as a relational instance."""
    facts: list[Fact] = []
    for u, v in graph.edges():
        first, second = sorted((u, v), key=element_key)
        facts.append(Fact(relation, (_name(first), _name(second))))
        if symmetric:
            facts.append(Fact(relation, (_name(second), _name(first))))
    return Instance(facts, Signature([(relation, 2)]))


def grid_graph_instance(size: int, relation: str = "E") -> Instance:
    """The size x size grid graph as an instance (treewidth = size)."""
    return graph_to_instance(grid_graph(size, size), relation)


def grid_of_lines(line: Instance, rows: int, cols: int) -> Instance:
    """Tile a grid with copies of a line-instance edge pattern (Theorem 8.7).

    The counterexample family for a non-intricate query is built from a line
    instance witnessing non-intricacy: every horizontal and vertical edge of a
    rows x cols grid carries the relation/direction of the corresponding edge
    of the witness line, repeating the witness pattern cyclically.  The family
    has unbounded treewidth (it contains the grid as its Gaifman graph).
    """
    pattern: list[tuple[str, bool]] = []
    for index, f in enumerate(line):
        left, right = f"a{index + 1}", f"a{index + 2}"
        forward = f.arguments == (left, right)
        pattern.append((f.relation, forward))
    if not pattern:
        raise ValueError("witness line instance is empty")

    facts: list[Fact] = []

    def add_edge(source: str, target: str, index: int) -> None:
        relation, forward = pattern[index % len(pattern)]
        facts.append(Fact(relation, (source, target) if forward else (target, source)))

    for r in range(rows):
        for c in range(cols):
            here = f"g{r}_{c}"
            if c + 1 < cols:
                add_edge(here, f"g{r}_{c + 1}", c)
            if r + 1 < rows:
                add_edge(here, f"g{r + 1}_{c}", r)
    return Instance(facts, line.signature)


def complete_bipartite_instance(m: int, n: int, relation: str = "E") -> Instance:
    """The complete bipartite directed graph of Proposition 8.9.

    All edges are oriented from the left part to the right part; on this
    unbounded-treewidth, treewidth-constructible family every
    homomorphism-closed query has constant-width OBDDs.
    """
    facts = [
        Fact(relation, (f"l{i}", f"r{j}")) for i in range(m) for j in range(n)
    ]
    return Instance(facts, Signature([(relation, 2)]))


def clique_instance(n: int, relation: str = "E") -> Instance:
    """The clique family of Section 5.1: unbounded treewidth, bounded clique-width."""
    facts = []
    for i in range(n):
        for j in range(n):
            if i != j:
                facts.append(Fact(relation, (f"c{i}", f"c{j}")))
    return Instance(facts, Signature([(relation, 2)]))


def _name(vertex: Any) -> str:
    if isinstance(vertex, str):
        return vertex
    if isinstance(vertex, tuple):
        return "n" + "_".join(str(part) for part in vertex)
    return f"n{vertex}"
