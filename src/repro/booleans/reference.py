"""Seed recursive OBDD algorithms, kept as differential references.

PR 4 rebuilt the knowledge-compilation core as iterative, array-oriented
kernels (the trie-driven DNF compilation of :mod:`repro.booleans.obdd` and
the passes over the flattened columns of :mod:`repro.booleans.columnar`).
This module preserves the *seed* algorithms —
the clause-by-clause ``apply`` fold with string-tagged tuple cache keys, the
recursive probability / model-count walks, and the per-cut width loop — in
their original recursive form, for two purposes:

* **differential testing**: the property suite checks that the new kernels
  produce the same reduced root ids and the same exact values as these
  references on randomized workloads (``tests/test_sweep_kernel.py``);
* **benchmarking**: ``benchmarks/bench_compile.py`` measures the new compile
  path against this seed path and gates CI on a >= 3x speedup.

Everything here intentionally inherits the seed's limitations: recursion
depth is bounded by the interpreter stack (deep variable orders raise
``RecursionError``) and the fold is quadratic on path-shaped lineages.  Do
not use these from production code paths.

:func:`probability_float_walk` is the object manager's former float loop
(one dictionary entry per node, one pass per probability map): the per-map
baseline ``benchmarks/bench_vector.py`` times the columnar batch kernel
against.

:func:`exact_probability_per_node` is the columnar exact kernel before it was
planned: per node it looks the level's rank up in a dictionary, packs the
keys of both edges and probes a coefficient cache for each.  It is the
oracle the planned kernel (:func:`repro.booleans.columnar.exact_probability`)
must equal, and the per-map baseline ``benchmarks/bench_vector.py`` gates it
against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from repro.booleans.obdd import FALSE_NODE, TRUE_NODE, OBDD
from repro.errors import LineageError

__all__ = [
    "apply_binary_recursive",
    "build_from_clauses_fold",
    "exact_probability_per_node",
    "model_count_recursive",
    "probability_float_walk",
    "probability_recursive",
    "width_by_cuts",
]


def apply_binary_recursive(
    manager: OBDD, op: str, left: int, right: int, cache: dict | None = None
) -> int:
    """The seed ``apply``: recursive, with ``(op, left, right)`` tuple keys.

    ``cache`` mimics the seed's per-manager apply cache; pass one dictionary
    across calls to reproduce the seed's memoization behaviour exactly.
    """
    if cache is None:
        cache = {}
    if op == "and":
        if left == FALSE_NODE or right == FALSE_NODE:
            return FALSE_NODE
        if left == TRUE_NODE:
            return right
        if right == TRUE_NODE:
            return left
    else:
        if left == TRUE_NODE or right == TRUE_NODE:
            return TRUE_NODE
        if left == FALSE_NODE:
            return right
        if right == FALSE_NODE:
            return left
    if left == right:
        return left
    key = (op, left, right) if left <= right else (op, right, left)
    cached = cache.get(key)
    if cached is not None:
        return cached
    nodes = manager._nodes
    n = len(manager.variable_order)
    left_level = nodes[left][0] if left > TRUE_NODE else n
    right_level = nodes[right][0] if right > TRUE_NODE else n
    level = min(left_level, right_level)
    if left_level == level:
        left_low, left_high = nodes[left][1], nodes[left][2]
    else:
        left_low = left_high = left
    if right_level == level:
        right_low, right_high = nodes[right][1], nodes[right][2]
    else:
        right_low = right_high = right
    result = manager.make_node(
        level,
        apply_binary_recursive(manager, op, left_low, right_low, cache),
        apply_binary_recursive(manager, op, left_high, right_high, cache),
    )
    cache[key] = result
    return result


def build_from_clauses_fold(manager: OBDD, clauses: Iterable[Iterable[Hashable]]) -> int:
    """The seed DNF compilation: a left fold of per-clause ``apply`` calls.

    Each clause is compiled by folding ``apply_and`` over its literals and the
    clauses are folded into the accumulator with ``apply_or`` — the quadratic
    intermediate blowup the trie construction of
    :meth:`repro.booleans.obdd.OBDD.build_from_clauses` eliminates.  Both
    produce the same reduced diagram (hence the same root id in the same
    manager).
    """
    cache: dict = {}
    terms = []
    for clause in clauses:
        term = TRUE_NODE
        for variable in clause:
            term = apply_binary_recursive(manager, "and", term, manager.literal(variable), cache)
        terms.append(term)
    result = FALSE_NODE
    for term in terms:
        result = apply_binary_recursive(manager, "or", result, term, cache)
    return result


def probability_recursive(
    manager: OBDD, node: int, probabilities: Mapping[Hashable, Fraction | float]
) -> Fraction:
    """The seed probability evaluation: a fresh recursive Fraction walk."""
    probs = {
        v: Fraction(p) if not isinstance(p, Fraction) else p for v, p in probabilities.items()
    }
    cache: dict[int, Fraction] = {FALSE_NODE: Fraction(0), TRUE_NODE: Fraction(1)}
    order = manager.variable_order

    def walk(current: int) -> Fraction:
        if current in cache:
            return cache[current]
        level, low, high = manager._nodes[current]
        variable = order[level]
        if variable not in probs:
            raise LineageError(f"missing probability for variable {variable!r}")
        p = probs[variable]
        result = p * walk(high) + (1 - p) * walk(low)
        cache[current] = result
        return result

    return walk(node)


def probability_float_walk(
    manager: OBDD, node: int, probabilities: Mapping[Hashable, Fraction | float]
) -> float:
    """The float probability of one map over the object node table.

    The reachable nodes are sorted deepest level first and each gets one
    dictionary entry, ``p * v(high) + (1 - p) * v(low)``, with ``p`` read
    once per level.
    """
    nodes = manager._nodes
    order = manager.variable_order
    reachable = manager._reachable_list(node)
    reachable.sort(key=lambda current: nodes[current][0], reverse=True)
    prob_of_level: dict[int, float] = {}
    values: dict[int, float] = {FALSE_NODE: 0.0, TRUE_NODE: 1.0}
    for current in reachable:
        level, low, high = nodes[current]
        p = prob_of_level.get(level)
        if p is None:
            variable = order[level]
            if variable not in probabilities:
                raise LineageError(f"missing probability for variable {variable!r}")
            p = prob_of_level[level] = float(probabilities[variable])
        values[current] = p * values[high] + (1 - p) * values[low]
    return values[node]


def exact_probability_per_node(
    order: Sequence[Hashable],
    probabilities: Mapping[Hashable, Fraction | float],
    var: list[int],
    lo: list[int],
    hi: list[int],
    root: int,
) -> Fraction:
    """The exact probability of the columns rooted at ``root``, in integers.

    ``var``/``lo``/``hi`` are the columns as lists: the node with id
    ``i + 2`` tests level ``var[i]`` and has children ``lo[i]`` and ``hi[i]``,
    children first.  With ``p = a/d`` the probability of the variable at a
    level, and ``S(level)`` the product of ``d`` over the diagram's levels at
    or below ``level`` (1 for the terminals), each node holds the integer
    ``v(node) * S(level)``::

        V(node) = a * G(level, high) * V(high) + (d - a) * G(level, low) * V(low)

    where ``G`` is the product of the denominators of the levels an edge
    skips, cached per pair of levels.
    """
    levels = sorted(set(var))
    numerators: list[int] = []
    denominators: list[int] = []
    for level in levels:
        variable = order[level]
        if variable not in probabilities:
            raise LineageError(f"missing probability for variable {variable!r}")
        raw = probabilities[variable]
        p = raw if isinstance(raw, Fraction) else Fraction(raw)
        numerator, denominator = p.as_integer_ratio()
        numerators.append(numerator)
        denominators.append(denominator)
    # Levels are addressed by rank among the diagram's levels; the terminals
    # sit at rank ``depth``.  scale[rank] = S(levels[rank]).
    depth = len(levels)
    scale = [1] * (depth + 1)
    for rank in range(depth - 1, -1, -1):
        scale[rank] = scale[rank + 1] * denominators[rank]
    rank_of = {level: rank for rank, level in enumerate(levels)}
    # Both lists are indexed by node id and grow one node at a time.
    ranks = [depth, depth]
    values = [0, 1]
    # Edge coefficients a*G (high) and (d - a)*G (low), keyed by the packed
    # (parent rank, child rank) pair.
    stride = depth + 1
    high_coefficients: dict[int, int] = {}
    low_coefficients: dict[int, int] = {}
    for level, low, high in zip(var, lo, hi):
        rank = rank_of[level]
        high_rank = ranks[high]
        key = rank * stride + high_rank
        high_coefficient = high_coefficients.get(key)
        if high_coefficient is None:
            high_coefficient = high_coefficients[key] = numerators[rank] * _skipped(
                scale, denominators, rank, high_rank
            )
        low_rank = ranks[low]
        key = rank * stride + low_rank
        low_coefficient = low_coefficients.get(key)
        if low_coefficient is None:
            low_coefficient = low_coefficients[key] = (
                denominators[rank] - numerators[rank]
            ) * _skipped(scale, denominators, rank, low_rank)
        values.append(high_coefficient * values[high] + low_coefficient * values[low])
        ranks.append(rank)
    return Fraction(values[root], scale[ranks[root]])


def _skipped(scale: list[int], denominators: list[int], rank: int, child_rank: int) -> int:
    """Product of the denominators strictly between two ranks (all of those
    below ``rank`` when the child is a terminal)."""
    if child_rank == len(denominators):
        return scale[rank + 1]
    product = 1
    for skipped in range(rank + 1, child_rank):
        product *= denominators[skipped]
    return product


def model_count_recursive(manager: OBDD, node: int) -> int:
    """The seed model count: a recursive walk with per-level shifts."""
    n = len(manager.variable_order)
    cache: dict[int, int] = {}

    def walk(current: int, level: int) -> int:
        if current == FALSE_NODE:
            return 0
        if current == TRUE_NODE:
            return 1 << (n - level)
        node_level = manager._nodes[current][0]
        if current in cache:
            return cache[current] << (node_level - level)
        _, low, high = manager._nodes[current]
        count = walk(low, node_level + 1) + walk(high, node_level + 1)
        cache[current] = count
        return count << (node_level - level)

    return walk(node, 0)


def width_by_cuts(manager: OBDD, node: int) -> int:
    """The seed width measurement: one live-set scan per cut (quadratic)."""
    if node <= TRUE_NODE:
        return 1
    reachable = manager.reachable_nodes(node)
    n = len(manager.variable_order)

    def landing(target: int) -> int:
        return manager._nodes[target][0] if target > TRUE_NODE else n

    incoming: list[tuple[int, int]] = []
    for current in reachable:
        level, low, high = manager._nodes[current]
        incoming.append((level, low))
        incoming.append((level, high))
    width = 1
    root_landing = landing(node)
    for cut in range(1, n + 1):
        live: set[int] = set()
        if cut <= root_landing:
            live.add(node)
        for source_level, target in incoming:
            if source_level < cut <= landing(target):
                live.add(target)
        width = max(width, len(live))
    return width
