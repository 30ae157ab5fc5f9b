"""Gaifman graphs of relational instances.

The Gaifman graph of an instance connects any two domain elements that
co-occur in a fact (Section 2).  The treewidth / pathwidth / tree-depth of an
instance are defined as those of its Gaifman graph.
"""

from __future__ import annotations

from typing import Any

from repro.data.instance import Instance
from repro.structure.graph import Graph


def gaifman_graph(instance: Instance) -> Graph:
    """The Gaifman graph of ``instance``.

    Every domain element becomes a vertex (including elements that occur alone
    in unary facts); two elements are adjacent iff they co-occur in some fact.
    """
    graph = Graph()
    for element in instance.domain:
        graph.add_vertex(element)
    for f in instance:
        elements = f.elements()
        for i, u in enumerate(elements):
            for v in elements[i + 1 :]:
                graph.add_edge(u, v)
    return graph


def incidence_graph(instance: Instance) -> Graph:
    """The incidence (bipartite) graph of an instance.

    Vertices are the domain elements plus one vertex per fact; each fact is
    adjacent to the elements it contains.  Used for MSO2-style encodings
    (e.g. the Hamiltonian-cycle query of Section 5.3).
    """
    graph = Graph()
    for element in instance.domain:
        graph.add_vertex(("elem", element))
    for index, f in enumerate(instance):
        fact_vertex: tuple[str, Any] = ("fact", index)
        graph.add_vertex(fact_vertex)
        for element in f.elements():
            graph.add_edge(fact_vertex, ("elem", element))
    return graph


def instance_treewidth(instance: Instance, exact: bool = False) -> int:
    """The treewidth of the instance (width of its Gaifman graph).

    With ``exact=True`` an exact branch-and-bound computation is used (only
    suitable for small instances); otherwise the best of the min-degree and
    min-fill heuristics is returned, which is an upper bound.
    """
    from repro.structure.tree_decomposition import treewidth

    return treewidth(gaifman_graph(instance), exact=exact)


def instance_pathwidth(instance: Instance) -> int:
    """An upper bound on the pathwidth of the instance's Gaifman graph."""
    from repro.structure.path_decomposition import pathwidth

    return pathwidth(gaifman_graph(instance))


def instance_tree_depth(instance: Instance) -> int:
    """The tree-depth of the instance's Gaifman graph (exact for small graphs)."""
    from repro.structure.tree_depth import tree_depth

    return tree_depth(gaifman_graph(instance))
