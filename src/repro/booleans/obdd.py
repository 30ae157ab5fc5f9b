"""Ordered Binary Decision Diagrams (Definition 6.4): construction.

Reduced OBDDs with hash-consing over a fixed variable order, supporting the
classical ``apply`` combination, restriction, and conversion to d-DNNF.  The
OBDD manager owns the node table; OBDD nodes are integers.  Terminal nodes
are 0 (false) and 1 (true).

Every algorithm in this module is **iterative**: ``apply``, negation and
restriction run on explicit-stack worklists, so the supported depth is
bounded by memory rather than the interpreter recursion limit (a line
instance of length 2000 compiles and evaluates fine).  The operation caches
are keyed by packed integers (``(left << 34) | (right << 2) | op``) instead
of tuples, and restriction results are memoized at the manager level exactly
like ``apply`` results.  Monotone DNFs are compiled by a trie-driven
bottom-up construction (:meth:`OBDD.build_from_clauses`) instead of a
clause-by-clause ``apply`` fold; the seed fold survives as a differential
reference in :mod:`repro.booleans.reference`.

Evaluation is not done here: probability, model count and width (the
maximum number of distinct subfunctions over the prefixes of the variable
order, Definition 6.4) run on the diagram flattened into columns
(:meth:`OBDD.to_columnar`), the one OBDD evaluation kernel of
:mod:`repro.booleans.columnar`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro import resilience as _resilience
from repro.errors import CompilationError, LineageError

FALSE_NODE = 0
TRUE_NODE = 1

# Operation tags for the packed-integer apply cache.  A cache key is
# ``(left << _KEY_SHIFT) | (right << 2) | op`` with commutative operands
# normalised so left <= right; node ids are assumed to fit in 32 bits.
_OP_AND = 0
_OP_OR = 1
_OP_NOT = 2
_KEY_SHIFT = 34


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

    def levels_of(self, variables: Iterable[Hashable]) -> list[int | None]:
        """The level of each variable, None for one outside the order."""
        return list(map(self._level.get, variables))

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

    # Evaluation runs on the flattened columns (repro.booleans.columnar), the
    # one OBDD evaluation kernel; these calls flatten the diagram per call.

    def probability(self, node: int, probabilities: Mapping[Hashable, Fraction | float]) -> Fraction:
        """Exact probability that the function is true under independent variables."""
        return self.to_columnar(node).probability(probabilities)

    def model_count(self, node: int) -> int:
        """Number of satisfying assignments over the *full* variable order."""
        return self.to_columnar(node).model_count()

    def width(self, node: int) -> int:
        """The width of the OBDD rooted at ``node`` (Definition 6.4): the
        maximum, over strict prefixes of the order, of the number of distinct
        subfunctions left after fixing the prefix's variables."""
        return self.to_columnar(node).width

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
        return self.build_from_levels(
            tuple(sorted({self.level_of(v) for v in clause})) for clause in clauses
        )

    def build_from_levels(self, clauses: Iterable[tuple[int, ...]]) -> int:
        """Compile a monotone DNF whose clauses are given as strictly
        increasing tuples of variable levels, as :meth:`build_from_clauses`
        does once it has looked the variables up."""
        self.root = self._compile_clause_trie(set(clauses))
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
