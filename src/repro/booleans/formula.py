"""Boolean formulas (tree-shaped circuits) and the Section 7 constructions.

Section 7 of the paper contrasts circuit lineage representations with
*formula* representations: a formula cannot share subformulas, which costs
super-linear blow-ups even for simple CQ≠ and MSO lineages.  This module
provides:

* a formula AST with size measures (the paper counts *variable occurrences*,
  a.k.a. leaf size, following Wegener [51]);
* expansion of a circuit into a formula (exponential in general);
* the classical divide-and-conquer upper-bound constructions for threshold
  and parity functions, used to chart the conciseness gap of Table 2;
* exhaustive minimal-formula search for tiny functions, used to validate the
  lower-bound shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

from repro.booleans.circuit import BooleanCircuit, GateKind
from repro.errors import LineageError


@dataclass(frozen=True)
class Formula:
    """A Boolean formula node: 'var', 'const', 'not', 'and', 'or'."""

    kind: str
    children: tuple["Formula", ...] = ()
    payload: object = None

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def var(name: Hashable) -> "Formula":
        return Formula("var", (), name)

    @staticmethod
    def const(value: bool) -> "Formula":
        return Formula("const", (), bool(value))

    @staticmethod
    def negation(child: "Formula") -> "Formula":
        return Formula("not", (child,))

    @staticmethod
    def conjunction(children: Sequence["Formula"]) -> "Formula":
        children = tuple(children)
        if not children:
            return Formula.const(True)
        if len(children) == 1:
            return children[0]
        return Formula("and", children)

    @staticmethod
    def disjunction(children: Sequence["Formula"]) -> "Formula":
        children = tuple(children)
        if not children:
            return Formula.const(False)
        if len(children) == 1:
            return children[0]
        return Formula("or", children)

    # -- measures --------------------------------------------------------------

    @property
    def leaf_size(self) -> int:
        """Number of variable occurrences (the formula-size measure of [51])."""
        if self.kind == "var":
            return 1
        if self.kind == "const":
            return 0
        return sum(child.leaf_size for child in self.children)

    @property
    def node_count(self) -> int:
        return 1 + sum(child.node_count for child in self.children)

    @property
    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth for child in self.children)

    def variables(self) -> set:
        if self.kind == "var":
            return {self.payload}
        result: set = set()
        for child in self.children:
            result |= child.variables()
        return result

    def is_monotone(self) -> bool:
        if self.kind == "not":
            return False
        return all(child.is_monotone() for child in self.children)

    # -- semantics --------------------------------------------------------------

    def evaluate(self, valuation: Mapping[Hashable, bool]) -> bool:
        if self.kind == "var":
            return bool(valuation[self.payload])
        if self.kind == "const":
            return bool(self.payload)
        if self.kind == "not":
            return not self.children[0].evaluate(valuation)
        if self.kind == "and":
            return all(child.evaluate(valuation) for child in self.children)
        if self.kind == "or":
            return any(child.evaluate(valuation) for child in self.children)
        raise LineageError(f"unknown formula kind {self.kind!r}")

    def to_circuit(self) -> BooleanCircuit:
        circuit = BooleanCircuit()

        def build(node: "Formula") -> int:
            if node.kind == "var":
                return circuit.variable(node.payload)
            if node.kind == "const":
                return circuit.constant(bool(node.payload))
            if node.kind == "not":
                return circuit.negation(build(node.children[0]))
            if node.kind == "and":
                return circuit.conjunction([build(c) for c in node.children])
            return circuit.disjunction([build(c) for c in node.children])

        circuit.set_output(build(self))
        return circuit

    def __str__(self) -> str:
        if self.kind == "var":
            return str(self.payload)
        if self.kind == "const":
            return "1" if self.payload else "0"
        if self.kind == "not":
            return f"~{self.children[0]}"
        joiner = " & " if self.kind == "and" else " | "
        return "(" + joiner.join(str(c) for c in self.children) + ")"


def circuit_to_formula(circuit: BooleanCircuit, max_size: int = 2_000_000) -> Formula:
    """Expand a circuit into a formula by duplicating shared subcircuits.

    The expansion can be exponential; ``max_size`` guards against runaway
    growth (measured in formula nodes created).
    """
    if circuit.output is None:
        raise LineageError("circuit has no output")
    budget = [max_size]

    def expand(gate_id: int) -> Formula:
        if budget[0] <= 0:
            raise LineageError("formula expansion exceeded the size budget")
        budget[0] -= 1
        gate = circuit.gate(gate_id)
        if gate.kind is GateKind.VAR:
            return Formula.var(gate.payload)
        if gate.kind is GateKind.CONST:
            return Formula.const(gate.payload)
        if gate.kind is GateKind.NOT:
            return Formula.negation(expand(gate.inputs[0]))
        children = [expand(i) for i in gate.inputs]
        if gate.kind is GateKind.AND:
            return Formula.conjunction(children)
        return Formula.disjunction(children)

    return expand(circuit.output)


# ---------------------------------------------------------------------------
# Classical constructions: threshold and parity
# ---------------------------------------------------------------------------


def threshold_2_formula(variables: Sequence[Hashable]) -> Formula:
    """A monotone formula for "at least two of the variables are true".

    Divide-and-conquer: split the variables in halves L, R; then
    TH2(X) = TH2(L) | TH2(R) | (OR(L) & OR(R)).
    Its leaf size is O(n log n), matching the monotone lower bound of
    Proposition 7.2 up to constants (the general lower bound is
    Omega(n log log n), Proposition 7.1).
    """
    names = list(variables)
    if len(names) < 2:
        return Formula.const(False)

    def any_of(block: Sequence[Hashable]) -> Formula:
        return Formula.disjunction([Formula.var(v) for v in block])

    def build(block: Sequence[Hashable]) -> Formula:
        if len(block) < 2:
            return Formula.const(False)
        if len(block) == 2:
            return Formula.conjunction([Formula.var(block[0]), Formula.var(block[1])])
        middle = len(block) // 2
        left, right = block[:middle], block[middle:]
        return Formula.disjunction(
            [build(left), build(right), Formula.conjunction([any_of(left), any_of(right)])]
        )

    return build(names)


def threshold_2_circuit(variables: Sequence[Hashable]) -> BooleanCircuit:
    """A linear-size monotone circuit for "at least two variables are true".

    A simple sequential scan sharing the running "at least one so far" gate;
    this is the circuit side of the conciseness gap of Section 7.
    """
    circuit = BooleanCircuit()
    names = list(variables)
    at_least_one = circuit.constant(False)
    at_least_two = circuit.constant(False)
    for name in names:
        var = circuit.variable(name)
        at_least_two = circuit.disjunction([at_least_two, circuit.conjunction([at_least_one, var])])
        at_least_one = circuit.disjunction([at_least_one, var])
    circuit.set_output(at_least_two)
    return circuit


def parity_formula(variables: Sequence[Hashable]) -> Formula:
    """A formula for the parity (XOR) of the variables.

    The classical recursive construction XOR(L, R) = (L & ~R) | (~L & R)
    over balanced halves has leaf size Theta(n^2) — which matches the
    Omega(n^2) lower bound of Proposition 7.3 (parity is the witness function
    there), so for parity this upper bound is tight.
    """
    names = list(variables)
    if not names:
        return Formula.const(False)

    def build(block: Sequence[Hashable]) -> tuple[Formula, Formula]:
        """Return (formula for XOR(block), formula for NOT XOR(block))."""
        if len(block) == 1:
            return Formula.var(block[0]), Formula.negation(Formula.var(block[0]))
        middle = len(block) // 2
        left_pos, left_neg = build(block[:middle])
        right_pos, right_neg = build(block[middle:])
        positive = Formula.disjunction(
            [Formula.conjunction([left_pos, right_neg]), Formula.conjunction([left_neg, right_pos])]
        )
        negative = Formula.disjunction(
            [Formula.conjunction([left_pos, right_pos]), Formula.conjunction([left_neg, right_neg])]
        )
        return positive, negative

    return build(names)[0]


def parity_circuit(variables: Sequence[Hashable]) -> BooleanCircuit:
    """A linear-size circuit for parity (running XOR with shared subcircuits)."""
    circuit = BooleanCircuit()
    names = list(variables)
    odd = circuit.constant(False)
    for name in names:
        var = circuit.variable(name)
        not_var = circuit.negation(var)
        not_odd = circuit.negation(odd)
        odd = circuit.disjunction(
            [circuit.conjunction([odd, not_var]), circuit.conjunction([not_odd, var])]
        )
    circuit.set_output(odd)
    return circuit


# ---------------------------------------------------------------------------
# Exhaustive minimal-formula search (tiny n, to chart the lower bounds)
# ---------------------------------------------------------------------------


def minimal_formula_size(
    variables: Sequence[Hashable],
    function: Callable[[Mapping[Hashable, bool]], bool],
    monotone: bool = False,
    max_leaves: int = 14,
) -> int:
    """The minimum leaf size of a formula computing ``function``.

    Brute-force search by dynamic programming on formula leaf size: we
    enumerate, for each leaf budget s, the set of Boolean functions (as truth
    tables) computable by formulas with exactly s leaves, and stop at the
    first budget that reaches the target.  Only feasible for very few
    variables (<= 4-5) and small budgets; used to validate the shape of the
    Section 7 lower bounds on tiny instances.
    """
    names = list(variables)
    n = len(names)
    size = 1 << n

    def table_of(f: Callable[[Mapping[Hashable, bool]], bool]) -> int:
        table = 0
        for mask in range(size):
            valuation = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
            if f(valuation):
                table |= 1 << mask
        return table

    target = table_of(function)
    full = (1 << size) - 1

    literal_tables: list[int] = []
    for i in range(n):
        positive = 0
        for mask in range(size):
            if mask >> i & 1:
                positive |= 1 << mask
        literal_tables.append(positive)
        if not monotone:
            literal_tables.append(full ^ positive)

    if target in (0, full):
        return 0
    by_leaves: list[set[int]] = [set(), set(literal_tables)]
    if target in by_leaves[1]:
        return 1
    for leaves in range(2, max_leaves + 1):
        current: set[int] = set()
        for left_leaves in range(1, leaves):
            right_leaves = leaves - left_leaves
            if right_leaves < 1 or right_leaves >= len(by_leaves):
                continue
            for left in by_leaves[left_leaves]:
                for right in by_leaves[right_leaves]:
                    current.add(left & right)
                    current.add(left | right)
                    if not monotone:
                        current.add(full ^ (left & right))
                        current.add(full ^ (left | right))
        if target in current:
            return leaves
        by_leaves.append(current)
    raise LineageError(f"no formula with at most {max_leaves} leaves computes the target")
