"""Counting Hamiltonian cycles (the hard problem of Theorem 5.7).

The match-counting dichotomy of Section 5.3 reduces from counting Hamiltonian
cycles in planar 3-regular graphs [41].  We provide a brute-force counter used
by the match-counting benchmark to cross-check the treelike upper bound on the
small graphs we can afford.
"""

from __future__ import annotations

from itertools import permutations

from repro.structure.graph import Graph, element_key


def count_hamiltonian_cycles(graph: Graph) -> int:
    """Number of Hamiltonian cycles (as undirected vertex cycles, each counted once).

    Brute force over vertex permutations with the first vertex pinned and the
    two traversal directions identified; suitable for graphs of at most ~10
    vertices.
    """
    vertices = sorted(graph.vertices, key=element_key)
    n = len(vertices)
    if n < 3:
        return 0
    if n > 10:
        raise ValueError("too many vertices for brute-force Hamiltonian cycle counting")
    first = vertices[0]
    rest = vertices[1:]
    count = 0
    for permutation in permutations(rest):
        cycle = (first, *permutation)
        if all(graph.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)):
            count += 1
    return count // 2  # each undirected cycle is counted in both directions


def has_hamiltonian_cycle(graph: Graph) -> bool:
    """Whether the graph has a Hamiltonian cycle (brute force, small graphs)."""
    return count_hamiltonian_cycles(graph) > 0
