"""Ordered Binary Decision Diagrams (Definition 6.4).

Reduced OBDDs with hash-consing over a fixed variable order, supporting the
classical ``apply`` combination, restriction, probability evaluation, model
counting, size and *width* measurements (the width measure of Definition 6.4:
the maximum number of nodes at any level, a level being indexed by a prefix of
the variable order).

The OBDD manager owns the node table; OBDD nodes are integers.  Terminal
nodes are 0 (false) and 1 (true).

Every algorithm in this module is **iterative**: ``apply``, negation,
restriction, and all measurements run on explicit-stack worklists, so the
supported depth is bounded by memory rather than the interpreter recursion
limit (a line instance of length 2000 compiles and evaluates fine).  The
operation caches are keyed by packed integers (``(left << 34) | (right << 2)
| op``) instead of tuples, and restriction results are memoized at the
manager level exactly like ``apply`` results.

Measurements share one **fused sweep kernel** (:meth:`OBDD.sweep`): a single
reverse-topological pass over the reachable node array computes model count,
size, width and the float fast path of the probability together.  Exact
probabilities come from :func:`exact_probability`, the integer recurrence
that both artifact kinds (this manager and
:class:`~repro.booleans.columnar.ColumnarOBDD`) call with their nodes in
children-first order: each node value is an integer scaled by the product of
the denominators of the diagram's levels at or below the node's level, and
the answer is the one :class:`~fractions.Fraction` built at the root.
Monotone DNFs are compiled by a trie-driven bottom-up construction
(:meth:`OBDD.build_from_clauses`) instead of a clause-by-clause ``apply``
fold; the seed fold survives as a differential reference in
:mod:`repro.booleans.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro import resilience as _resilience
from repro.errors import CompilationError, LineageError

# How many sweep iterations pass between wall-clock checkpoints when a
# resource budget is active; one Deadline consultation per stride keeps the
# checkpoint overhead under the bench_resilience gate.
_CHECKPOINT_STRIDE = 4096

FALSE_NODE = 0
TRUE_NODE = 1

# Operation tags for the packed-integer apply cache.  A cache key is
# ``(left << _KEY_SHIFT) | (right << 2) | op`` with commutative operands
# normalised so left <= right; node ids are assumed to fit in 32 bits.
_OP_AND = 0
_OP_OR = 1
_OP_NOT = 2
_KEY_SHIFT = 34


def exact_probability(
    order: Sequence[Hashable],
    probabilities: Mapping[Hashable, Fraction | float],
    table: Sequence[tuple[int, int, int]],
    nodes: Sequence[int],
    root: int,
) -> Fraction:
    """The exact probability of the diagram rooted at ``root``, in integers.

    ``table[node]`` is the ``(level, low, high)`` triple of a decision node
    (ids 0 and 1 are the FALSE/TRUE terminals) and ``nodes`` lists the
    reachable decision nodes children first.  With ``p = a/d`` the
    probability of the variable at a level, and ``S(level)`` the product of
    ``d`` over the diagram's levels at or below ``level`` (1 for the
    terminals), each node holds the integer ``v(node) * S(level)``::

        V(node) = a * G(level, high) * V(high) + (d - a) * G(level, low) * V(low)

    where ``G`` is the product of the denominators of the levels an edge
    skips, cached per pair of levels.  Scaling each level by its own
    denominator keeps every value as small as the exact answer needs; a
    common denominator for all levels would multiply the digits by the number
    of levels whenever the denominators share few factors.  No operation
    reduces a fraction: the answer is the one ``Fraction`` built at the root.
    """
    levels = sorted({table[node][0] for node in nodes})
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
    node_rank = {FALSE_NODE: depth, TRUE_NODE: depth}
    values = {FALSE_NODE: 0, TRUE_NODE: 1}
    # Edge coefficients a*G (high) and (d - a)*G (low), keyed by the packed
    # (parent rank, child rank) pair.
    stride = depth + 1
    high_coefficients: dict[int, int] = {}
    low_coefficients: dict[int, int] = {}

    budget = _resilience.ACTIVE
    if budget is not None:
        budget.checkpoint()
    countdown = _CHECKPOINT_STRIDE
    for node in nodes:
        if budget is not None:
            countdown -= 1
            if countdown == 0:
                countdown = _CHECKPOINT_STRIDE
                budget.checkpoint()
        level, low, high = table[node]
        rank = rank_of[level]
        high_rank = node_rank[high]
        key = rank * stride + high_rank
        high_coefficient = high_coefficients.get(key)
        if high_coefficient is None:
            high_coefficient = high_coefficients[key] = numerators[rank] * _skipped(
                scale, denominators, rank, high_rank
            )
        low_rank = node_rank[low]
        key = rank * stride + low_rank
        low_coefficient = low_coefficients.get(key)
        if low_coefficient is None:
            low_coefficient = low_coefficients[key] = (
                denominators[rank] - numerators[rank]
            ) * _skipped(scale, denominators, rank, low_rank)
        values[node] = high_coefficient * values[high] + low_coefficient * values[low]
        node_rank[node] = rank
    return Fraction(values[root], scale[node_rank[root]])


def _skipped(scale: list[int], denominators: list[int], rank: int, child_rank: int) -> int:
    """Product of the denominators strictly between two ranks.

    That is the exact quotient ``scale[rank + 1] // scale[child_rank]``, but
    a long division costs time linear in the scales' digits, while an edge
    to a decision node usually skips few levels: multiplying those out is
    cheaper.  An edge to a terminal skips every level below, whose product
    is ``scale[rank + 1]`` itself.
    """
    if child_rank == len(denominators):
        return scale[rank + 1]
    product = 1
    for skipped in range(rank + 1, child_rank):
        product *= denominators[skipped]
    return product


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The outputs of one fused topological sweep over a reachable node array.

    Fields not requested from :meth:`OBDD.sweep` are ``None``; ``size`` (the
    number of reachable decision nodes) is always computed since the sweep
    materializes the reachable set anyway.
    """

    size: int
    probability: Fraction | float | None = None
    model_count: int | None = None
    width: int | None = None


class OBDD:
    """A reduced OBDD manager over a fixed variable order.

    Parameters
    ----------
    variable_order:
        The total order Pi on variables; all functions managed by this OBDD
        use (a subset of) these variables, tested in this order.
    """

    def __init__(self, variable_order: Sequence[Hashable]) -> None:
        order = list(variable_order)
        if len(set(order)) != len(order):
            raise LineageError("variable order contains duplicates")
        self._order: list[Hashable] = order
        self._level: dict[Hashable, int] = {v: i for i, v in enumerate(order)}
        # node id -> (level, low child, high child); ids 0/1 are terminals.
        self._nodes: list[tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[int, int] = {}
        self._restrict_cache: dict[int, int] = {}
        self.root: int = FALSE_NODE

    # -- construction ----------------------------------------------------------

    @property
    def variable_order(self) -> tuple[Hashable, ...]:
        return tuple(self._order)

    def level_of(self, variable: Hashable) -> int:
        try:
            return self._level[variable]
        except KeyError:
            raise LineageError(f"variable {variable!r} not in the OBDD order") from None

    def make_node(self, level: int, low: int, high: int) -> int:
        """The (hash-consed) node testing the variable at ``level``."""
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            # The single allocation choke point: every construction path
            # (build_from_clauses, apply, restrict) creates nodes only here,
            # so charging the ambient budget per unique-table insert caps
            # them all.  Re-derived (hash-consed) nodes are free.
            budget = _resilience.ACTIVE
            if budget is not None:
                budget.charge_nodes(1)
            self._nodes.append(key)
            node = len(self._nodes) - 1
            self._unique[key] = node
        return node

    def terminal(self, value: bool) -> int:
        return TRUE_NODE if value else FALSE_NODE

    def literal(self, variable: Hashable, positive: bool = True) -> int:
        level = self.level_of(variable)
        if positive:
            return self.make_node(level, FALSE_NODE, TRUE_NODE)
        return self.make_node(level, TRUE_NODE, FALSE_NODE)

    # -- boolean operations ------------------------------------------------------

    def apply_not(self, node: int) -> int:
        if node == FALSE_NODE:
            return TRUE_NODE
        if node == TRUE_NODE:
            return FALSE_NODE
        cache = self._apply_cache
        nodes = self._nodes
        root_key = (node << _KEY_SHIFT) | _OP_NOT
        if root_key in cache:
            return cache[root_key]
        stack = [node]
        while stack:
            current = stack[-1]
            key = (current << _KEY_SHIFT) | _OP_NOT
            if key in cache:
                stack.pop()
                continue
            level, low, high = nodes[current]
            low_result = self._not_ready(low)
            high_result = self._not_ready(high)
            if low_result is None or high_result is None:
                if low_result is None:
                    stack.append(low)
                if high_result is None:
                    stack.append(high)
                continue
            cache[key] = self.make_node(level, low_result, high_result)
            stack.pop()
        return cache[root_key]

    def _not_ready(self, node: int) -> int | None:
        """The negation of ``node`` when immediately available, else None."""
        if node == FALSE_NODE:
            return TRUE_NODE
        if node == TRUE_NODE:
            return FALSE_NODE
        return self._apply_cache.get((node << _KEY_SHIFT) | _OP_NOT)

    def apply_and(self, left: int, right: int) -> int:
        return self._apply_binary(_OP_AND, left, right)

    def apply_or(self, left: int, right: int) -> int:
        return self._apply_binary(_OP_OR, left, right)

    @staticmethod
    def _apply_shortcut(op: int, left: int, right: int) -> int | None:
        """Terminal/absorption cases of ``apply`` that need no traversal."""
        if op == _OP_AND:
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
        return None

    def _apply_binary(self, op: int, left: int, right: int) -> int:
        quick = self._apply_shortcut(op, left, right)
        if quick is not None:
            return quick
        cache = self._apply_cache
        nodes = self._nodes
        n = len(self._order)
        if left > right:
            left, right = right, left
        root_key = (left << _KEY_SHIFT) | (right << 2) | op
        if root_key in cache:
            return cache[root_key]
        stack = [(left, right)]
        while stack:
            l, r = stack[-1]
            key = (l << _KEY_SHIFT) | (r << 2) | op
            if key in cache:
                stack.pop()
                continue
            l_level = nodes[l][0] if l > TRUE_NODE else n
            r_level = nodes[r][0] if r > TRUE_NODE else n
            level = l_level if l_level < r_level else r_level
            if l_level == level:
                l_low, l_high = nodes[l][1], nodes[l][2]
            else:
                l_low = l_high = l
            if r_level == level:
                r_low, r_high = nodes[r][1], nodes[r][2]
            else:
                r_low = r_high = r
            low_result = self._apply_ready(op, l_low, r_low)
            high_result = self._apply_ready(op, l_high, r_high)
            if low_result is None or high_result is None:
                if low_result is None:
                    stack.append((l_low, r_low) if l_low <= r_low else (r_low, l_low))
                if high_result is None:
                    stack.append((l_high, r_high) if l_high <= r_high else (r_high, l_high))
                continue
            cache[key] = self.make_node(level, low_result, high_result)
            stack.pop()
        return cache[root_key]

    def _apply_ready(self, op: int, left: int, right: int) -> int | None:
        """The result of ``apply`` on a pair when immediately available."""
        quick = self._apply_shortcut(op, left, right)
        if quick is not None:
            return quick
        if left > right:
            left, right = right, left
        return self._apply_cache.get((left << _KEY_SHIFT) | (right << 2) | op)

    def conjunction(self, nodes: Iterable[int]) -> int:
        return self._balanced_combine(_OP_AND, list(nodes), TRUE_NODE)

    def disjunction(self, nodes: Iterable[int]) -> int:
        return self._balanced_combine(_OP_OR, list(nodes), FALSE_NODE)

    def _balanced_combine(self, op: int, operands: list[int], neutral: int) -> int:
        """N-ary apply by balanced pairwise merging.

        A left fold combines a growing accumulator with each operand in turn,
        which is quadratic when the intermediate results grow; merging
        adjacent pairs keeps both sides of every ``apply`` comparably small
        (logarithmic depth).
        """
        if not operands:
            return neutral
        while len(operands) > 1:
            merged = [
                self._apply_binary(op, operands[i], operands[i + 1])
                for i in range(0, len(operands) - 1, 2)
            ]
            if len(operands) % 2:
                merged.append(operands[-1])
            operands = merged
        return operands[0]

    def restrict(self, node: int, variable: Hashable, value: bool) -> int:
        """The cofactor of ``node`` with ``variable`` fixed to ``value``.

        Results are memoized in a manager-level cache keyed by packed
        ``(node, level, value)`` integers, so repeated restrictions (e.g. the
        per-variable cofactors of one diagram) are served like ``apply`` hits
        instead of rebuilding a throwaway per-call dictionary.
        """
        target = self.level_of(variable)
        bit = 1 if value else 0
        if node <= TRUE_NODE:
            return node
        cache = self._restrict_cache
        nodes = self._nodes
        root_key = (node << _KEY_SHIFT) | (target << 1) | bit
        if root_key in cache:
            return cache[root_key]
        stack = [node]
        while stack:
            current = stack[-1]
            key = (current << _KEY_SHIFT) | (target << 1) | bit
            if key in cache:
                stack.pop()
                continue
            level, low, high = nodes[current]
            if level == target:
                cache[key] = high if value else low
                stack.pop()
                continue
            if level > target:
                cache[key] = current
                stack.pop()
                continue
            low_result = self._restrict_ready(low, target, bit)
            high_result = self._restrict_ready(high, target, bit)
            if low_result is None or high_result is None:
                if low_result is None:
                    stack.append(low)
                if high_result is None:
                    stack.append(high)
                continue
            cache[key] = self.make_node(level, low_result, high_result)
            stack.pop()
        return cache[root_key]

    def _restrict_ready(self, node: int, target: int, bit: int) -> int | None:
        if node <= TRUE_NODE:
            return node
        return self._restrict_cache.get((node << _KEY_SHIFT) | (target << 1) | bit)

    # -- semantics ---------------------------------------------------------------

    def evaluate(self, node: int, valuation: Mapping[Hashable, bool]) -> bool:
        current = node
        while current > TRUE_NODE:
            level, low, high = self._nodes[current]
            variable = self._order[level]
            current = high if valuation.get(variable, False) else low
        return current == TRUE_NODE

    # -- the fused sweep kernel ---------------------------------------------------

    def sweep(
        self,
        node: int,
        probabilities: Mapping[Hashable, Fraction | float] | None = None,
        *,
        model_count: bool = False,
        width: bool = False,
        exact: bool = True,
    ) -> SweepResult:
        """Probability, model count, size, and width in one topological pass.

        The reachable nodes are collected once and processed in reverse
        topological order (deepest level first), so every requested quantity
        is produced by the same sweep instead of one recursive walk each.
        ``probabilities`` triggers the probability computation; ``exact=True``
        (the default, and the contract of every exact route in this library)
        runs the integer recurrence :func:`exact_probability` over the same
        node order and returns a :class:`~fractions.Fraction`;
        ``exact=False`` runs a float fast path whose result is always a float
        in ``[0, 1]``: gross
        degeneracy (non-finite, or off by more than 1e-9) falls back to the
        exact kernel (then coerced to float), and sub-tolerance rounding
        excursions are clamped.
        """
        result = self._sweep_impl(node, probabilities, model_count, width, exact)
        if not exact and result.probability is not None:
            value = result.probability
            if not (math.isfinite(value) and -1e-9 <= value <= 1 + 1e-9):
                fallback = self._sweep_impl(node, probabilities, model_count, width, True)
                result = SweepResult(
                    size=fallback.size,
                    probability=float(fallback.probability),
                    model_count=fallback.model_count,
                    width=fallback.width,
                )
            elif not 0.0 <= value <= 1.0:
                # Sub-tolerance float rounding: clamp so callers always see a
                # probability inside [0, 1].
                result = SweepResult(
                    size=result.size,
                    probability=min(max(value, 0.0), 1.0),
                    model_count=result.model_count,
                    width=result.width,
                )
        return result

    def _sweep_impl(
        self,
        node: int,
        probabilities: Mapping[Hashable, Fraction | float] | None,
        want_count: bool,
        want_width: bool,
        exact: bool,
    ) -> SweepResult:
        n = len(self._order)
        nodes = self._nodes
        want_probability = probabilities is not None
        if node <= TRUE_NODE:
            is_true = node == TRUE_NODE
            probability: Fraction | float | None = None
            if want_probability:
                probability = Fraction(1 if is_true else 0) if exact else float(is_true)
            return SweepResult(
                size=0,
                probability=probability,
                model_count=((1 << n) if is_true else 0) if want_count else None,
                width=1 if want_width else None,
            )

        reachable = self._reachable_list(node)
        # Children always sit at strictly larger levels, so sorting by level
        # descending is a reverse topological order of the reachable DAG.
        reachable.sort(key=lambda current: nodes[current][0], reverse=True)

        probability = None
        if want_probability and exact:
            probability = exact_probability(self._order, probabilities, nodes, reachable, node)
        # The float fast path and the counts share one pass.
        want_float = want_probability and not exact
        if not (want_float or want_count or want_width):
            return SweepResult(size=len(reachable), probability=probability)

        # Wall-clock checkpoints for the fused sweep: consult the ambient
        # deadline once up front and then every _CHECKPOINT_STRIDE nodes, so
        # a sweep over millions of nodes stays interruptible.
        budget = _resilience.ACTIVE
        if budget is not None:
            budget.checkpoint()
        countdown = _CHECKPOINT_STRIDE

        prob_of_level: dict[int, float] = {}

        def level_probability(level: int) -> float:
            p = prob_of_level.get(level)
            if p is None:
                variable = self._order[level]
                if variable not in probabilities:
                    raise LineageError(f"missing probability for variable {variable!r}")
                p = prob_of_level[level] = float(probabilities[variable])
            return p

        prob_values: dict[int, float] | None = (
            {FALSE_NODE: 0.0, TRUE_NODE: 1.0} if want_float else None
        )
        count_values: dict[int, int] | None = {TRUE_NODE: 1, FALSE_NODE: 0} if want_count else None
        # For the width, each distinct edge target is live exactly at the cuts
        # L with min_source_level(target) < L <= landing(target); the maximum
        # number of simultaneously live targets over all cuts is the width.
        min_source: dict[int, int] | None = {} if want_width else None

        for current in reachable:
            if budget is not None:
                countdown -= 1
                if countdown == 0:
                    countdown = _CHECKPOINT_STRIDE
                    budget.checkpoint()
            level, low, high = nodes[current]
            if want_float:
                p = level_probability(level)
                prob_values[current] = (
                    p * prob_values[high] + (1 - p) * prob_values[low]
                )
            if want_count:
                low_landing = nodes[low][0] if low > TRUE_NODE else n
                high_landing = nodes[high][0] if high > TRUE_NODE else n
                count_values[current] = (count_values[low] << (low_landing - level - 1)) + (
                    count_values[high] << (high_landing - level - 1)
                )
            if want_width:
                for child in (low, high):
                    known = min_source.get(child)
                    if known is None or level < known:
                        min_source[child] = level

        width_value: int | None = None
        if want_width:
            # Difference array over the cuts 1..n: +1 where a target becomes
            # live, -1 one past its landing level; the root is live from cut 1
            # through its own level.
            delta = [0] * (n + 2)
            root_level = nodes[node][0]
            delta[1] += 1
            delta[root_level + 1] -= 1
            for target, source_level in min_source.items():
                landing = nodes[target][0] if target > TRUE_NODE else n
                if source_level + 1 <= landing:
                    delta[source_level + 1] += 1
                    delta[landing + 1] -= 1
            width_value = 1
            live = 0
            for cut in range(1, n + 1):
                live += delta[cut]
                if live > width_value:
                    width_value = live

        model_count_value: int | None = None
        if want_count:
            model_count_value = count_values[node] << nodes[node][0]

        return SweepResult(
            size=len(reachable),
            probability=prob_values[node] if want_float else probability,
            model_count=model_count_value,
            width=width_value,
        )

    def probability(self, node: int, probabilities: Mapping[Hashable, Fraction | float]) -> Fraction:
        """Exact probability that the function is true under independent variables."""
        return self.sweep(node, probabilities).probability

    def probability_float(self, node: int, probabilities: Mapping[Hashable, Fraction | float]) -> float:
        """The float fast path of the sweep kernel (exact fallback on degeneracy)."""
        return self.sweep(node, probabilities, exact=False).probability

    def model_count(self, node: int) -> int:
        """Number of satisfying assignments over the *full* variable order."""
        return self.sweep(node, model_count=True).model_count

    # -- measurements --------------------------------------------------------------

    def _reachable_list(self, node: int) -> list[int]:
        seen: set[int] = set()
        out: list[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen or current <= TRUE_NODE:
                continue
            seen.add(current)
            out.append(current)
            _, low, high = self._nodes[current]
            stack.append(low)
            stack.append(high)
        return out

    def reachable_nodes(self, node: int) -> set[int]:
        return set(self._reachable_list(node))

    def size(self, node: int) -> int:
        """Number of decision nodes reachable from ``node`` (terminals excluded)."""
        return len(self._reachable_list(node))

    def width(self, node: int) -> int:
        """The width of the OBDD rooted at ``node`` (Definition 6.4).

        The level of a node is the index of its variable in the order; the
        width is the maximum, over levels, of the number of *distinct
        subfunctions* reachable after fixing the variables of a strict prefix
        of the order.  For a reduced OBDD this equals, for each prefix length
        L, the number of distinct nodes (or terminals) that are the landing
        point of an edge crossing the cut before level L (plus the root while
        its level >= L); the fused sweep computes it by interval counting.
        """
        return self.sweep(node, width=True).width

    def node_table(self, node: int) -> list[tuple[int, Hashable, int, int]]:
        """A readable dump of the reachable nodes: (id, variable, low, high)."""
        return [
            (current, self._order[self._nodes[current][0]], self._nodes[current][1], self._nodes[current][2])
            for current in sorted(self._reachable_list(node))
        ]

    def __repr__(self) -> str:
        return f"OBDD(order of {len(self._order)} variables, {len(self._nodes) - 2} nodes allocated)"

    # -- columnar adapters -----------------------------------------------------

    def to_columnar(self, node: int, order: Sequence[Hashable] | None = None):
        """The diagram rooted at ``node`` as a :class:`~repro.booleans.columnar.
        ColumnarOBDD` (lossless; see :meth:`from_columnar` for the inverse)."""
        from repro.booleans.columnar import columnar_from_obdd

        return columnar_from_obdd(self, node, order)

    @classmethod
    def from_columnar(cls, columnar) -> "tuple[OBDD, int]":
        """Rebuild ``(manager, root)`` from a columnar artifact (lossless)."""
        return columnar.to_obdd()

    # -- building from other representations -----------------------------------------

    def build_from_circuit(self, circuit) -> int:
        """Compile a :class:`BooleanCircuit` bottom-up with ``apply``.

        Every circuit variable must appear in this OBDD's order.  Returns the
        root node of the compiled function.  N-ary gates are combined by
        balanced merging rather than a left fold.
        """
        from repro.booleans.circuit import GateKind

        if circuit.output is None:
            raise CompilationError("circuit has no output gate")
        missing = set(circuit.variables()) - set(self._order)
        if missing:
            raise CompilationError(f"circuit variables missing from OBDD order: {sorted(map(repr, missing))[:3]}")
        values: dict[int, int] = {}
        for gate_id in circuit.reachable_gates():
            gate = circuit.gate(gate_id)
            if gate.kind is GateKind.VAR:
                values[gate_id] = self.literal(gate.payload)
            elif gate.kind is GateKind.CONST:
                values[gate_id] = self.terminal(bool(gate.payload))
            elif gate.kind is GateKind.NOT:
                values[gate_id] = self.apply_not(values[gate.inputs[0]])
            elif gate.kind is GateKind.AND:
                values[gate_id] = self.conjunction(values[i] for i in gate.inputs)
            else:
                values[gate_id] = self.disjunction(values[i] for i in gate.inputs)
        self.root = values[circuit.output]
        return self.root

    def build_from_clauses(self, clauses: Iterable[Iterable[Hashable]]) -> int:
        """Compile a monotone DNF given as an iterable of variable sets.

        The clauses are arranged in a trie sorted by the variable order and
        the OBDD is built bottom-up along the trie: clauses sharing a prefix
        under the fact order are compiled once below the shared prefix, and
        each trie edge costs a single ``apply_or`` between the child's
        diagram and the accumulated sibling tail.  This replaces the seed's
        clause-by-clause ``apply`` fold (kept in
        :mod:`repro.booleans.reference`), whose accumulator makes the fold
        quadratic on path-shaped lineages; both constructions produce the
        same reduced diagram, hence the same root id, in the same manager.
        """
        level_clauses: set[tuple[int, ...]] = set()
        for clause in clauses:
            level_clauses.add(tuple(sorted({self.level_of(v) for v in clause})))
        self.root = self._compile_clause_trie(level_clauses)
        return self.root

    def _compile_clause_trie(self, level_clauses: set[tuple[int, ...]]) -> int:
        if not level_clauses:
            return FALSE_NODE
        if () in level_clauses:
            # The empty conjunction is TRUE and absorbs every other clause.
            return TRUE_NODE
        # Trie node: (children: level -> trie node id, accepting flag).
        children: list[dict[int, int]] = [{}]
        accepting: list[bool] = [False]
        for clause in sorted(level_clauses):
            current = 0
            for level in clause:
                child = children[current].get(level)
                if child is None:
                    children.append({})
                    accepting.append(False)
                    child = len(children) - 1
                    children[current][level] = child
                current = child
            accepting[current] = True
        # Compile the trie bottom-up with an explicit post-order stack: the
        # function of a trie node is OR over its edges (level, child) of
        # "variable AND child function", assembled from the deepest edge
        # upward so each edge costs one make_node and one apply_or.
        compiled: list[int | None] = [None] * len(children)
        stack = [0]
        while stack:
            trie_node = stack[-1]
            if accepting[trie_node]:
                # A clause ends here: the node's function is TRUE (minimal
                # DNFs never branch below an accepting node, but subsumed
                # clauses are absorbed correctly anyway).
                compiled[trie_node] = TRUE_NODE
                stack.pop()
                continue
            pending = [child for child in children[trie_node].values() if compiled[child] is None]
            if pending:
                stack.extend(pending)
                continue
            acc = FALSE_NODE
            for level in sorted(children[trie_node], reverse=True):
                child_function = compiled[children[trie_node][level]]
                acc = self.make_node(level, acc, self.apply_or(child_function, acc))
            compiled[trie_node] = acc
            stack.pop()
        return compiled[0]


def minimal_obdd_width(
    variables: Sequence[Hashable],
    build: Callable[[OBDD], int],
    orders: Iterable[Sequence[Hashable]] | None = None,
) -> int:
    """The minimum OBDD width of a function over a set of candidate orders.

    ``build`` receives a fresh OBDD manager and must return the root node of
    the function in that manager.  By default all permutations of the
    variables are tried (factorial; tiny variable counts only).
    """
    import itertools

    if orders is None:
        orders = itertools.permutations(list(variables))
    best: int | None = None
    for order in orders:
        manager = OBDD(list(order))
        root = build(manager)
        width = manager.width(root)
        if best is None or width < best:
            best = width
    if best is None:
        raise CompilationError("no candidate variable orders supplied")
    return best
