"""Closed-form reference probabilities, computed without the library's routes.

Each function takes the exact per-fact probabilities the benchmark generated
and returns the query probability as a :class:`~fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


def path_two_consecutive(edges: Sequence[Fraction]) -> Fraction:
    """P(E(x,y), E(y,z)) on a directed path whose edges have these
    probabilities, in path order: one minus the probability that no two
    consecutive edges are both present (a linear DP over "last edge present")."""
    absent, present = Fraction(1), Fraction(0)
    for p in edges:
        absent, present = (absent + present) * (1 - p), absent * p
    return 1 - absent - present


def path_edges_in_order(valuation: Mapping) -> list[Fraction]:
    """Edge probabilities of a directed path instance, from source to sink."""
    successor = {f.arguments[0]: f for f in valuation}
    heads = {f.arguments[1] for f in valuation}
    (node,) = [tail for tail in successor if tail not in heads]
    ordered = []
    while node in successor:
        edge = successor[node]
        ordered.append(valuation[edge])
        node = edge.arguments[1]
    if len(ordered) != len(valuation):
        raise ValueError("valuation is not a single directed path")
    return ordered


def rst_line(valuation: Mapping, with_t: bool) -> Fraction:
    """On ``rst_chain_instance``: P(R(x), S(x,y)) is ``1 - prod(1 - r_i s_i)``
    and P(R(x), S(x,y), T(y)) is ``1 - prod(1 - r_i s_i t_i)``."""
    by_key = {(f.relation, f.arguments): p for f, p in valuation.items()}
    miss = Fraction(1)
    for (relation, arguments), s in by_key.items():
        if relation != "S":
            continue
        a, b = arguments
        clause = by_key[("R", (a,))] * s
        if with_t:
            clause *= by_key[("T", (b,))]
        miss *= 1 - clause
    return 1 - miss


def lifted_family(r: Sequence[Fraction], s: Sequence[Sequence[Fraction]]) -> Fraction:
    """P(R(x), S(x,y)) on ``R(a_i)`` plus ``S(a_i, b_j)``:
    ``1 - prod_i (1 - r_i (1 - prod_j (1 - s_ij)))``."""
    miss = Fraction(1)
    for r_i, row in zip(r, s):
        none = Fraction(1)
        for s_ij in row:
            none *= 1 - s_ij
        miss *= 1 - r_i * (1 - none)
    return 1 - miss
