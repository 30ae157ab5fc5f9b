"""Free Binary Decision Diagrams (FBDDs).

An FBDD (also called a read-once branching program) is a rooted DAG of
decision nodes in which every root-to-sink path tests each variable at most
once, but -- unlike an OBDD (Definition 6.4) -- different paths may test
variables in different orders.  FBDDs sit strictly between OBDDs and d-DNNFs
in the knowledge-compilation hierarchy: every OBDD is an FBDD, every FBDD
translates to a d-DNNF of linear size, and both probability evaluation and
model counting stay polynomial.

The paper's conclusion asks whether the OBDD dichotomy (Theorem 8.1) extends
to FBDDs and d-DNNFs; this module provides the FBDD machinery needed to
*explore* that question experimentally: construction from OBDDs, direct
compilation of Boolean circuits by Shannon expansion under a dynamic variable
choice, probability evaluation, model counting, and structural checks
(read-once validation, orderedness testing).

Terminal nodes are the integers ``0`` (false) and ``1`` (true), as in
:mod:`repro.booleans.obdd`.  Like the OBDD evaluation kernel
(:class:`repro.booleans.columnar.ColumnarOBDD`), every measurement here is
an iterative pass over the reachable nodes in topological (ascending-id)
order, so diagram depth is bounded by memory, not the recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import CompilationError, LineageError
from repro.structure.graph import element_key

FALSE_NODE = 0
TRUE_NODE = 1


class FBDD:
    """A reduced free binary decision diagram.

    The manager owns the node table; nodes are integers, with ``0`` and ``1``
    reserved for the terminals.  Decision nodes are hash-consed, and nodes
    with identical children are collapsed, so structurally identical
    subdiagrams are shared.

    Unlike :class:`repro.booleans.obdd.OBDD`, there is no global variable
    order; instead the *read-once* property (no variable tested twice on a
    path) is maintained by the construction methods and can be re-checked
    with :meth:`check_read_once`.

    Decision nodes are interned children-first, so ascending node ids are a
    topological order of the DAG; every measurement below is an iterative
    pass over the reachable ids in that order (no recursion, any depth).
    """

    def __init__(self) -> None:
        # node id -> (variable, low child, high child); ids 0/1 are terminals.
        self._nodes: list[tuple[Hashable, int, int]] = [
            (None, -1, -1),
            (None, -1, -1),
        ]
        self._unique: dict[tuple[Hashable, int, int], int] = {}
        self.root: int = FALSE_NODE

    # -- construction ----------------------------------------------------------

    def terminal(self, value: bool) -> int:
        return TRUE_NODE if value else FALSE_NODE

    def make_node(self, variable: Hashable, low: int, high: int) -> int:
        """The (hash-consed) decision node testing ``variable``.

        Nodes whose two children coincide are collapsed to the child, so the
        diagram stays reduced.
        """
        self._check_node(low)
        self._check_node(high)
        if low == high:
            return low
        key = (variable, low, high)
        node = self._unique.get(key)
        if node is None:
            self._nodes.append(key)
            node = len(self._nodes) - 1
            self._unique[key] = node
        return node

    def literal(self, variable: Hashable, positive: bool = True) -> int:
        if positive:
            return self.make_node(variable, FALSE_NODE, TRUE_NODE)
        return self.make_node(variable, TRUE_NODE, FALSE_NODE)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._nodes):
            raise LineageError(f"FBDD node id {node} out of range")

    # -- accessors -------------------------------------------------------------

    def node(self, node_id: int) -> tuple[Hashable, int, int]:
        """The ``(variable, low, high)`` triple of a decision node."""
        self._check_node(node_id)
        if node_id <= TRUE_NODE:
            raise LineageError("terminals have no decision triple")
        return self._nodes[node_id]

    def is_terminal(self, node_id: int) -> bool:
        return node_id <= TRUE_NODE

    def reachable_nodes(self, node: int | None = None) -> set[int]:
        """Decision nodes reachable from ``node`` (default: the root)."""
        start = self.root if node is None else node
        seen: set[int] = set()
        stack = [start]
        while stack:
            current = stack.pop()
            if current in seen or current <= TRUE_NODE:
                continue
            seen.add(current)
            _, low, high = self._nodes[current]
            stack.extend((low, high))
        return seen

    def _reachable_ascending(self, node: int | None = None) -> list[int]:
        """Reachable decision nodes in ascending id (= topological) order."""
        return sorted(self.reachable_nodes(node))

    def size(self, node: int | None = None) -> int:
        """Number of decision nodes reachable from ``node`` (terminals excluded)."""
        return len(self.reachable_nodes(node))

    def variables(self, node: int | None = None) -> frozenset:
        """The variables tested anywhere in the diagram rooted at ``node``."""
        return frozenset(
            self._nodes[n][0] for n in self.reachable_nodes(node)
        )

    def __len__(self) -> int:
        return len(self._nodes) - 2

    def __repr__(self) -> str:
        return f"FBDD({len(self)} decision nodes allocated)"

    # -- structural checks -----------------------------------------------------

    def check_read_once(self, node: int | None = None) -> bool:
        """True if no root-to-sink path tests the same variable twice.

        This is the defining property of FBDDs; the construction methods of
        this class preserve it, but diagrams assembled by hand with
        :meth:`make_node` may violate it.
        """
        start = self.root if node is None else node
        # It suffices that, for every reachable node v testing x, x is not
        # tested again anywhere strictly below v; the tested-below sets are
        # computed in one ascending (topological) pass.
        below = self._tested_below(start)
        for current in self.reachable_nodes(start):
            variable, low, high = self._nodes[current]
            if variable in below[low] or variable in below[high]:
                return False
        return True

    def _tested_below(self, start: int) -> dict[int, frozenset]:
        """Per reachable node, the set of variables tested at or below it."""
        below: dict[int, frozenset] = {FALSE_NODE: frozenset(), TRUE_NODE: frozenset()}
        for current in self._reachable_ascending(start):
            variable, low, high = self._nodes[current]
            below[current] = frozenset({variable}) | below[low] | below[high]
        return below

    def is_ordered(self, node: int | None = None) -> bool:
        """True if some global variable order is consistent with every path.

        An FBDD is *ordered* (i.e., it is an OBDD in disguise) when the
        precedence constraints "x is tested before y on some path" admit a
        linear extension; we collect all parent-before-descendant pairs and
        test the resulting precedence relation for acyclicity.
        """
        start = self.root if node is None else node
        below = self._tested_below(start)
        precedence: dict[Hashable, set[Hashable]] = {}
        for current in self.reachable_nodes(start):
            variable, low, high = self._nodes[current]
            successors = precedence.setdefault(variable, set())
            for child in (low, high):
                successors.update(below[child])
            successors.discard(variable)
        # Iterative cycle detection over the precedence relation.
        visiting: set[Hashable] = set()
        done: set[Hashable] = set()
        for origin in list(precedence):
            if origin in done:
                continue
            stack: list[tuple[Hashable, Iterator]] = [(origin, iter(precedence.get(origin, ())))]
            visiting.add(origin)
            while stack:
                variable, successors_iter = stack[-1]
                advanced = False
                for successor in successors_iter:
                    if successor in done:
                        continue
                    if successor in visiting:
                        return False
                    visiting.add(successor)
                    stack.append((successor, iter(precedence.get(successor, ()))))
                    advanced = True
                    break
                if not advanced:
                    visiting.discard(variable)
                    done.add(variable)
                    stack.pop()
        return True

    # -- semantics --------------------------------------------------------------

    def evaluate(self, valuation: Mapping[Hashable, bool], node: int | None = None) -> bool:
        current = self.root if node is None else node
        while current > TRUE_NODE:
            variable, low, high = self._nodes[current]
            current = high if valuation.get(variable, False) else low
        return current == TRUE_NODE

    def probability(
        self,
        probabilities: Mapping[Hashable, Fraction | float],
        node: int | None = None,
    ) -> Fraction:
        """Exact probability under independent variables (read-once => correct)."""
        start = self.root if node is None else node
        probs = {
            variable: value if isinstance(value, Fraction) else Fraction(value)
            for variable, value in probabilities.items()
        }
        values: dict[int, Fraction] = {FALSE_NODE: Fraction(0), TRUE_NODE: Fraction(1)}
        for current in self._reachable_ascending(start):
            variable, low, high = self._nodes[current]
            if variable not in probs:
                raise LineageError(f"missing probability for variable {variable!r}")
            p = probs[variable]
            values[current] = p * values[high] + (1 - p) * values[low]
        return values[start]

    def model_count(
        self,
        all_variables: Iterable[Hashable] | None = None,
        node: int | None = None,
    ) -> int:
        """Number of satisfying assignments over ``all_variables``.

        Defaults to the variables tested in the diagram.  Works because the
        read-once property makes the variable sets of the two children of any
        node disjoint from the tested variable, so counts can be normalised
        per node by the number of untested variables.
        """
        start = self.root if node is None else node
        tested = self.variables(start)
        if all_variables is None:
            universe = tested
        else:
            universe = frozenset(all_variables)
            if not tested <= universe:
                raise LineageError("diagram tests variables outside the given universe")
        # One ascending pass computes, per node, both its variable set and its
        # model count over exactly that set ("count" below).
        vars_below: dict[int, frozenset] = {FALSE_NODE: frozenset(), TRUE_NODE: frozenset()}
        counts: dict[int, int] = {FALSE_NODE: 0, TRUE_NODE: 1}
        for current in self._reachable_ascending(start):
            variable, low, high = self._nodes[current]
            here = frozenset({variable}) | vars_below[low] | vars_below[high]
            vars_below[current] = here
            low_models = counts[low] << (len(here) - 1 - len(vars_below[low]))
            high_models = counts[high] << (len(here) - 1 - len(vars_below[high]))
            counts[current] = low_models + high_models
        start_vars = vars_below.get(start, frozenset())
        return counts[start] << (len(universe) - len(start_vars))

    def restrict(self, node: int, variable: Hashable, value: bool) -> int:
        """The cofactor of ``node`` with ``variable`` fixed to ``value``."""
        mapping: dict[int, int] = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
        for current in self._reachable_ascending(node):
            tested, low, high = self._nodes[current]
            if tested == variable:
                mapping[current] = mapping[high] if value else mapping[low]
            else:
                mapping[current] = self.make_node(tested, mapping[low], mapping[high])
        return mapping[node]

    def negate(self, node: int | None = None) -> int:
        """The complement of the function (swap the terminals)."""
        start = self.root if node is None else node
        mapping: dict[int, int] = {FALSE_NODE: TRUE_NODE, TRUE_NODE: FALSE_NODE}
        for current in self._reachable_ascending(start):
            variable, low, high = self._nodes[current]
            mapping[current] = self.make_node(variable, mapping[low], mapping[high])
        return mapping[start]

    # -- conversions -------------------------------------------------------------

    def to_dnnf(self, node: int | None = None):
        """An equivalent d-DNNF (decision nodes become deterministic ORs)."""
        from repro.booleans.dnnf import DNNF

        start = self.root if node is None else node
        dnnf = DNNF()
        mapping: dict[int, int] = {
            FALSE_NODE: dnnf.constant(False),
            TRUE_NODE: dnnf.constant(True),
        }
        for current in self._reachable_ascending(start):
            variable, low, high = self._nodes[current]
            low_branch = dnnf.conjunction(
                [dnnf.literal(variable, positive=False), mapping[low]]
            )
            high_branch = dnnf.conjunction(
                [dnnf.literal(variable, positive=True), mapping[high]]
            )
            mapping[current] = dnnf.disjunction([low_branch, high_branch])
        dnnf.set_output(mapping[start])
        return dnnf

    def node_table(self, node: int | None = None) -> list[tuple[int, Hashable, int, int]]:
        """A readable dump of the reachable decision nodes."""
        start = self.root if node is None else node
        return [
            (current, *self._nodes[current])
            for current in sorted(self.reachable_nodes(start))
        ]


def fbdd_from_obdd(obdd, root: int) -> FBDD:
    """Copy an OBDD into a (necessarily ordered) FBDD.

    One iterative pass over the reachable OBDD nodes, deepest level first,
    so diagrams of any depth convert without recursion.
    """
    diagram = FBDD()
    order = obdd.variable_order
    mapping: dict[int, int] = {FALSE_NODE: FALSE_NODE, TRUE_NODE: TRUE_NODE}
    reachable = obdd._reachable_list(root)
    reachable.sort(key=lambda current: obdd._nodes[current][0], reverse=True)
    for node in reachable:
        level, low, high = obdd._nodes[node]
        mapping[node] = diagram.make_node(order[level], mapping[low], mapping[high])
    diagram.root = mapping[root]
    return diagram


def _most_constrained_variable(
    circuit,
    restriction: Mapping[Hashable, bool],
    allowed: frozenset | None = None,
) -> Hashable | None:
    """A dynamic branching heuristic: the free variable with the largest fan-out.

    When ``allowed`` is given, only those variables are considered (used by the
    adjacency-guided default order of :func:`compile_circuit_to_fbdd`).
    """
    from repro.booleans.circuit import GateKind

    variable_of_gate: dict[int, Hashable] = {}
    counts: dict[Hashable, int] = {}
    reachable = set(circuit.reachable_gates())
    for gate_id in reachable:
        gate = circuit.gate(gate_id)
        if gate.kind is not GateKind.VAR or gate.payload in restriction:
            continue
        if allowed is not None and gate.payload not in allowed:
            continue
        variable_of_gate[gate_id] = gate.payload
        counts[gate.payload] = counts.get(gate.payload, 0)
    for gate_id in reachable:
        gate = circuit.gate(gate_id)
        for source in gate.inputs:
            if source in variable_of_gate:
                counts[variable_of_gate[source]] += 1
    if not counts:
        return None
    # Deterministic tie-break on the repr of the variable.
    return min(counts, key=lambda name: (-counts[name], repr(name)))


def _variable_adjacency(circuit) -> dict[Hashable, set[Hashable]]:
    """Variables that share an immediate parent gate (e.g. a DNF clause)."""
    from repro.booleans.circuit import GateKind

    adjacency: dict[Hashable, set[Hashable]] = {}
    for _, gate in circuit.gates():
        siblings = [
            circuit.gate(source).payload
            for source in gate.inputs
            if circuit.gate(source).kind is GateKind.VAR
        ]
        for variable in siblings:
            adjacency.setdefault(variable, set()).update(
                other for other in siblings if other != variable
            )
    return adjacency


def _canonical_form(circuit) -> tuple:
    """A hashable structural fingerprint of a (pruned) circuit.

    Structurally identical circuits get identical fingerprints, which makes
    the fingerprint a *sound* cache key for Shannon-expansion compilation:
    merging structurally identical cofactors can never change the compiled
    function.
    """
    from repro.booleans.circuit import GateKind

    gates = []
    remap: dict[int, int] = {}
    for position, gate_id in enumerate(circuit.reachable_gates()):
        remap[gate_id] = position
        gate = circuit.gate(gate_id)
        payload = gate.payload if gate.kind in (GateKind.VAR, GateKind.CONST) else None
        gates.append((gate.kind.value, tuple(remap[i] for i in gate.inputs), payload))
    return (tuple(gates), remap.get(circuit.output))


def compile_circuit_to_fbdd(
    circuit,
    variable_choice: Callable[[Mapping[Hashable, bool], Sequence[Hashable]], Hashable] | None = None,
    max_nodes: int = 200_000,
) -> FBDD:
    """Compile a Boolean circuit to an FBDD by Shannon expansion.

    At each step a free variable is chosen (by ``variable_choice``, which
    receives the partial assignment and the live variables), the circuit is
    cofactored on it, and the two cofactors are compiled recursively.  The
    default choice prefers live variables adjacent (sharing a gate) to
    already-assigned ones, breaking ties by fan-out: on clause-structured
    circuits this sweeps contiguously through the clauses, which keeps the
    diagram small on path-like lineages.  The choice may depend on the partial
    assignment built so far, which is what makes the result a *free* (rather
    than ordered) BDD.  Structurally identical cofactors are merged, so the
    diagram is a DAG.

    This is exponential in the worst case (as it must be); ``max_nodes``
    bounds the work and a :class:`CompilationError` is raised beyond it.
    """
    from repro.booleans.circuit import GateKind

    if circuit.output is None:
        raise CompilationError("circuit has no output gate")
    diagram = FBDD()
    cache: dict[tuple, int] = {}
    adjacency = _variable_adjacency(circuit)

    def live_variables(sub) -> list[Hashable]:
        live: set[Hashable] = set()
        for gate_id in sub.reachable_gates():
            gate = sub.gate(gate_id)
            if gate.kind is GateKind.VAR:
                live.add(gate.payload)
        return sorted(live, key=element_key)

    def build(sub, assignment: dict[Hashable, bool]) -> int:
        if len(diagram) > max_nodes:
            raise CompilationError("FBDD compilation exceeded the node budget")
        sub = sub.pruned()
        live = live_variables(sub)
        if not live:
            return diagram.terminal(sub.evaluate({}))
        key = _canonical_form(sub)
        if key in cache:
            return cache[key]
        if variable_choice is None:
            near_assigned = frozenset(
                variable
                for variable in live
                if any(neighbor in assignment for neighbor in adjacency.get(variable, ()))
            )
            branch_on = _most_constrained_variable(sub, {}, allowed=near_assigned or None)
        else:
            branch_on = variable_choice(dict(assignment), live)
        if branch_on not in set(live):
            raise CompilationError("variable choice must return a live variable")
        low = build(sub.restrict({branch_on: False}), {**assignment, branch_on: False})
        high = build(sub.restrict({branch_on: True}), {**assignment, branch_on: True})
        node = diagram.make_node(branch_on, low, high)
        cache[key] = node
        return node

    diagram.root = build(circuit, {})
    return diagram


def fbdd_from_clauses(clauses: Iterable[Iterable[Hashable]]) -> FBDD:
    """Compile a monotone DNF (an iterable of variable sets) into an FBDD.

    Convenience wrapper: the DNF is turned into a circuit and compiled by
    Shannon expansion.
    """
    from repro.booleans.circuit import BooleanCircuit

    circuit = BooleanCircuit()
    terms = []
    for clause in clauses:
        terms.append(circuit.conjunction([circuit.variable(v) for v in clause]))
    circuit.set_output(circuit.disjunction(terms))
    return compile_circuit_to_fbdd(circuit)
