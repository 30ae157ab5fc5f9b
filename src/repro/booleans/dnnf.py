"""Deterministic decomposable negation normal forms (d-DNNFs), Definition 6.10.

A d-DNNF is a Boolean circuit where negation is applied only to inputs, the
inputs of every AND gate depend on disjoint variables (decomposability), and
the inputs of every OR gate are mutually exclusive (determinism).  Probability
evaluation and (weighted) model counting are linear in a d-DNNF.

We provide:

* a :class:`DNNF` circuit class with structural checks for decomposability and
  (semantic, exhaustive) determinism checks for testing;
* linear-time probability evaluation and model counting assuming *smoothness
  is not required*: probabilities are computed compositionally, and model
  counts account for unmentioned variables explicitly;
* conversion from OBDDs (an OBDD is an FBDD, which converts node-by-node);
* conversion to a plain :class:`BooleanCircuit`.

Node ids are created children-before-parents, so ascending id order is a
topological order: every semantic walk (evaluation, probability, model
counting) is a single iterative pass over the reachable node array — the
d-DNNF face of the sweep kernel of :mod:`repro.booleans.obdd` — and depth is
never limited by the interpreter recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from repro.booleans.circuit import BooleanCircuit
from repro.errors import LineageError
from repro.structure.graph import element_key


@dataclass(frozen=True, slots=True)
class DNNFNode:
    """A node of a d-DNNF: 'lit' (payload = (variable, polarity)), 'const',
    'and', or 'or'."""

    kind: str
    children: tuple[int, ...]
    payload: object = None


class DNNF:
    """A d-DNNF circuit with an output node.

    Nodes are created through ``literal`` / ``constant`` / ``conjunction`` /
    ``disjunction`` and are checked for decomposability at construction time.
    Determinism of OR gates is the caller's responsibility (it is a semantic
    property); the constructions in :mod:`repro.provenance` guarantee it, and
    :meth:`check_determinism` verifies it exhaustively for testing.

    Per-node variable sets are stored **interval-compressed**: variables get
    dense integer ids in first-literal order, and each node keeps a sorted
    tuple of disjoint ``(low, high)`` id ranges.  On the structured circuits
    the provenance constructions build (a subtree's facts occupy a contiguous
    id range), every gate carries O(1) intervals, so construction-time
    decomposability checking is constant work per gate instead of a variable-
    set union proportional to the subtree — the eager frozensets of the seed
    made circuit construction quadratic in both time and memory on
    path-shaped encodings.
    """

    def __init__(self) -> None:
        self._nodes: list[DNNFNode] = []
        # Per node: sorted, disjoint, coalesced (low, high) variable-id ranges.
        self._intervals: list[tuple[tuple[int, int], ...]] = []
        self._variable_ids: dict[Hashable, int] = {}
        self._id_variables: list[Hashable] = []
        self.output: int | None = None

    # -- construction -----------------------------------------------------------

    def _add(self, node: DNNFNode, intervals: tuple[tuple[int, int], ...]) -> int:
        self._nodes.append(node)
        self._intervals.append(intervals)
        return len(self._nodes) - 1

    def literal(self, variable: Hashable, positive: bool = True) -> int:
        identifier = self._variable_ids.get(variable)
        if identifier is None:
            identifier = len(self._id_variables)
            self._variable_ids[variable] = identifier
            self._id_variables.append(variable)
        return self._add(
            DNNFNode("lit", (), (variable, bool(positive))), ((identifier, identifier),)
        )

    def constant(self, value: bool) -> int:
        return self._add(DNNFNode("const", (), bool(value)), ())

    def _merged_intervals(
        self, children: Sequence[int], require_disjoint: bool
    ) -> tuple[tuple[int, int], ...] | None:
        """Union of the children's id ranges; None on overlap when disjointness
        is required.  Adjacent ranges coalesce, keeping the tuples short."""
        ranges = [r for child in children for r in self._intervals[child]]
        if len(ranges) <= 1:
            return tuple(ranges)
        ranges.sort()
        merged = [ranges[0]]
        for low, high in ranges[1:]:
            last_low, last_high = merged[-1]
            if low <= last_high:
                if require_disjoint:
                    return None
                merged[-1] = (last_low, max(last_high, high))
            elif low == last_high + 1:
                merged[-1] = (last_low, max(last_high, high))
            else:
                merged.append((low, high))
        return tuple(merged)

    def conjunction(self, children: Sequence[int]) -> int:
        children = tuple(children)
        if not children:
            return self.constant(True)
        if len(children) == 1:
            return children[0]
        merged = self._merged_intervals(children, require_disjoint=True)
        if merged is None:
            raise LineageError(
                "AND children share variables; the node would not be decomposable"
            )
        return self._add(DNNFNode("and", children), merged)

    def disjunction(self, children: Sequence[int]) -> int:
        children = tuple(children)
        if not children:
            return self.constant(False)
        if len(children) == 1:
            return children[0]
        merged = self._merged_intervals(children, require_disjoint=False)
        return self._add(DNNFNode("or", children), merged)

    def set_output(self, node: int) -> None:
        if not 0 <= node < len(self._nodes):
            raise LineageError(f"node id {node} out of range")
        self.output = node

    # -- accessors ---------------------------------------------------------------

    def node(self, node_id: int) -> DNNFNode:
        return self._nodes[node_id]

    def variables_of(self, node_id: int) -> frozenset:
        return frozenset(
            self._id_variables[identifier]
            for low, high in self._intervals[node_id]
            for identifier in range(low, high + 1)
        )

    @property
    def size(self) -> int:
        """Total number of nodes."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return sum(len(node.children) for node in self._nodes)

    def variables(self) -> frozenset:
        if self.output is None:
            raise LineageError("d-DNNF has no output")
        return self.variables_of(self.output)

    def _reachable_from(self, root: int) -> list[int]:
        """Reachable node ids in ascending (= topological) order."""
        seen: set[int] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._nodes[current].children)
        return sorted(seen)

    def reachable(self) -> list[int]:
        if self.output is None:
            raise LineageError("d-DNNF has no output")
        return self._reachable_from(self.output)

    def __repr__(self) -> str:
        return f"DNNF({len(self)} nodes)"

    # -- semantics ----------------------------------------------------------------

    def evaluate(self, valuation: Mapping[Hashable, bool], node: int | None = None) -> bool:
        """Evaluate under a (possibly partial) valuation, demand-driven.

        Children are examined left to right and only as far as needed, like
        the short-circuiting ``all``/``any`` of the recursive original —
        literals the outcome never depends on may be absent from
        ``valuation`` — but on an explicit stack, so depth is unbounded.
        """
        root = self.output if node is None else node
        if root is None:
            raise LineageError("d-DNNF has no output")
        values: dict[int, bool] = {}
        stack = [root]
        while stack:
            current = stack[-1]
            if current in values:
                stack.pop()
                continue
            data = self._nodes[current]
            if data.kind == "lit":
                variable, positive = data.payload
                value = bool(valuation[variable])
                values[current] = value if positive else not value
                stack.pop()
                continue
            if data.kind == "const":
                values[current] = bool(data.payload)
                stack.pop()
                continue
            # AND stops at the first False child, OR at the first True one;
            # an unknown child encountered first must be evaluated before
            # looking any further (left-to-right demand order).
            deciding = data.kind != "and"
            result: bool | None = None
            pending: int | None = None
            for child in data.children:
                known = values.get(child)
                if known is None:
                    pending = child
                    break
                if known == deciding:
                    result = deciding
                    break
            if result is None and pending is not None:
                stack.append(pending)
                continue
            values[current] = deciding if result is not None else not deciding
            stack.pop()
        return values[root]

    def _probability_sweep(self, probs: Mapping[Hashable, Fraction]) -> Fraction:
        """One iterative pass computing the probability of the output node."""
        one = Fraction(1)
        zero = Fraction(0)
        values: dict[int, Fraction] = {}
        for current in self.reachable():
            data = self._nodes[current]
            if data.kind == "lit":
                variable, positive = data.payload
                p = probs[variable]
                values[current] = p if positive else 1 - p
            elif data.kind == "const":
                values[current] = one if data.payload else zero
            elif data.kind == "and":
                result = one
                for child in data.children:
                    result *= values[child]
                values[current] = result
            else:
                result = zero
                for child in data.children:
                    result += values[child]
                values[current] = result
        return values[self.output]

    def probability(self, probabilities: Mapping[Hashable, Fraction | float]) -> Fraction:
        """Exact probability under independent variables (linear time).

        Correctness relies on decomposability (checked structurally) and
        determinism of OR nodes (guaranteed by our constructions).
        """
        if self.output is None:
            raise LineageError("d-DNNF has no output")
        probs = {v: p if isinstance(p, Fraction) else Fraction(p) for v, p in probabilities.items()}
        missing = self.variables() - set(probs)
        if missing:
            raise LineageError(f"missing probabilities for {sorted(map(repr, missing))[:3]}")
        result = self._probability_sweep(probs)
        if not 0 <= result <= 1:
            raise LineageError(
                "probability outside [0, 1]; the circuit is not deterministic/decomposable"
            )
        return result

    def model_count(self, all_variables: Iterable[Hashable] | None = None) -> int:
        """Number of satisfying assignments over ``all_variables``.

        Defaults to the variables mentioned by the circuit.  Unmentioned
        variables double the count.
        """
        variables = set(all_variables) if all_variables is not None else set(self.variables())
        extra = variables - set(self.variables())
        probability = self.probability({v: Fraction(1, 2) for v in self.variables()})
        count = probability * (1 << len(self.variables()))
        if count.denominator != 1:
            raise LineageError("non-integer model count; determinism is violated")
        return int(count) << len(extra)

    # -- verification ---------------------------------------------------------------

    def check_decomposability(self) -> bool:
        """Re-verify decomposability of every reachable AND node."""
        for node_id in self.reachable():
            data = self._nodes[node_id]
            if data.kind != "and":
                continue
            if self._merged_intervals(data.children, require_disjoint=True) is None:
                return False
        return True

    def check_determinism(self, max_variables: int = 16) -> bool:
        """Exhaustively verify that OR children are mutually exclusive (testing only)."""
        names = sorted(self.variables(), key=element_key)
        if len(names) > max_variables:
            raise LineageError("too many variables for exhaustive determinism check")
        for mask in range(1 << len(names)):
            valuation = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
            for node_id in self.reachable():
                data = self._nodes[node_id]
                if data.kind != "or":
                    continue
                true_children = [c for c in data.children if self.evaluate(valuation, c)]
                if len(true_children) > 1:
                    return False
        return True

    # -- conversions -----------------------------------------------------------------

    def to_circuit(self) -> BooleanCircuit:
        circuit = BooleanCircuit()
        mapping: dict[int, int] = {}
        for node_id in range(len(self._nodes)):
            data = self._nodes[node_id]
            if data.kind == "lit":
                variable, positive = data.payload
                gate = circuit.variable(variable)
                mapping[node_id] = gate if positive else circuit.negation(gate)
            elif data.kind == "const":
                mapping[node_id] = circuit.constant(bool(data.payload))
            elif data.kind == "and":
                mapping[node_id] = circuit.conjunction([mapping[c] for c in data.children])
            else:
                mapping[node_id] = circuit.disjunction([mapping[c] for c in data.children])
        if self.output is not None:
            circuit.set_output(mapping[self.output])
        return circuit


def dnnf_from_obdd(obdd, root: int) -> DNNF:
    """Convert an OBDD into a d-DNNF of proportional size.

    Each decision node on variable x with children (low, high) becomes
    ``(x AND high') OR (NOT x AND low')``: the OR is deterministic because the
    two disjuncts disagree on x, and the ANDs are decomposable because x does
    not occur below itself in an ordered BDD.  The conversion is a single
    iterative pass over the reachable OBDD nodes, deepest level first, so
    diagrams of any depth convert without recursion.
    """
    from repro.booleans.obdd import FALSE_NODE, TRUE_NODE

    dnnf = DNNF()
    if root == FALSE_NODE:
        dnnf.set_output(dnnf.constant(False))
        return dnnf
    if root == TRUE_NODE:
        dnnf.set_output(dnnf.constant(True))
        return dnnf

    reachable = obdd._reachable_list(root)
    reachable.sort(key=lambda current: obdd._nodes[current][0], reverse=True)
    false_id = dnnf.constant(False)
    true_id = dnnf.constant(True)
    mapping: dict[int, int] = {FALSE_NODE: false_id, TRUE_NODE: true_id}
    for current in reachable:
        level, low, high = obdd._nodes[current]
        variable = obdd.variable_order[level]
        positive = (
            dnnf.conjunction([dnnf.literal(variable, True), mapping[high]])
            if high != FALSE_NODE
            else false_id
        )
        negative = (
            dnnf.conjunction([dnnf.literal(variable, False), mapping[low]])
            if low != FALSE_NODE
            else false_id
        )
        mapping[current] = dnnf.disjunction([positive, negative])
    dnnf.set_output(mapping[root])
    return dnnf
