"""Boolean circuits (lineage circuits, Definition 6.2).

A circuit is a DAG of gates: variable inputs, constants, NOT, AND, OR (AND/OR
gates may have any number of inputs).  Circuits are the most general lineage
representation we use; the treewidth of a circuit (the treewidth of its
underlying graph) governs the OBDD compilation of Section 6.

Gates are identified by integer ids; the circuit designates one output gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import LineageError
from repro.structure.graph import element_key


class GateKind(Enum):
    VAR = "var"
    CONST = "const"
    NOT = "not"
    AND = "and"
    OR = "or"


@dataclass(frozen=True, slots=True)
class Gate:
    """A single gate: its kind, inputs (gate ids), and payload.

    ``payload`` is the variable name for VAR gates and the Boolean value for
    CONST gates; it is ``None`` otherwise (``__slots__`` keeps the per-gate
    footprint small on large lineage circuits).
    """

    kind: GateKind
    inputs: tuple[int, ...]
    payload: Any = None


class BooleanCircuit:
    """A Boolean circuit over named variables.

    The circuit is built incrementally through ``variable`` / ``constant`` /
    ``negation`` / ``conjunction`` / ``disjunction`` and then sealed by setting
    ``output``.  Identical VAR and CONST gates are shared automatically.
    """

    def __init__(self) -> None:
        self._gates: list[Gate] = []
        self._var_gate: dict[Hashable, int] = {}
        self._const_gate: dict[bool, int] = {}
        self.output: int | None = None

    # -- construction ---------------------------------------------------------

    def _add(self, gate: Gate) -> int:
        self._gates.append(gate)
        return len(self._gates) - 1

    def variable(self, name: Hashable) -> int:
        """The (shared) input gate for a variable."""
        if name not in self._var_gate:
            self._var_gate[name] = self._add(Gate(GateKind.VAR, (), name))
        return self._var_gate[name]

    def constant(self, value: bool) -> int:
        value = bool(value)
        if value not in self._const_gate:
            self._const_gate[value] = self._add(Gate(GateKind.CONST, (), value))
        return self._const_gate[value]

    def negation(self, gate: int) -> int:
        self._check_gate(gate)
        return self._add(Gate(GateKind.NOT, (gate,)))

    def conjunction(self, inputs: Sequence[int]) -> int:
        inputs = tuple(inputs)
        for g in inputs:
            self._check_gate(g)
        if not inputs:
            return self.constant(True)
        if len(inputs) == 1:
            return inputs[0]
        return self._add(Gate(GateKind.AND, inputs))

    def disjunction(self, inputs: Sequence[int]) -> int:
        inputs = tuple(inputs)
        for g in inputs:
            self._check_gate(g)
        if not inputs:
            return self.constant(False)
        if len(inputs) == 1:
            return inputs[0]
        return self._add(Gate(GateKind.OR, inputs))

    def set_output(self, gate: int) -> None:
        self._check_gate(gate)
        self.output = gate

    def _check_gate(self, gate: int) -> None:
        if not 0 <= gate < len(self._gates):
            raise LineageError(f"gate id {gate} out of range")

    # -- accessors ------------------------------------------------------------

    def gate(self, gate_id: int) -> Gate:
        return self._gates[gate_id]

    def gates(self) -> Iterator[tuple[int, Gate]]:
        return iter(enumerate(self._gates))

    def __len__(self) -> int:
        """Number of gates (the circuit's size)."""
        return len(self._gates)

    @property
    def size(self) -> int:
        return len(self._gates)

    def wire_count(self) -> int:
        return sum(len(g.inputs) for g in self._gates)

    def variables(self) -> tuple[Hashable, ...]:
        """All variable names, in insertion order."""
        return tuple(self._var_gate)

    def __repr__(self) -> str:
        return f"BooleanCircuit({len(self)} gates, {len(self._var_gate)} variables)"

    # -- semantics ------------------------------------------------------------

    def evaluate(self, valuation: Mapping[Hashable, bool]) -> bool:
        """Evaluate the circuit under a total valuation of its variables."""
        if self.output is None:
            raise LineageError("circuit has no output gate")
        values: list[bool | None] = [None] * len(self._gates)
        for gate_id in self._topological_order():
            gate = self._gates[gate_id]
            if gate.kind is GateKind.VAR:
                if gate.payload not in valuation:
                    raise LineageError(f"valuation missing variable {gate.payload!r}")
                values[gate_id] = bool(valuation[gate.payload])
            elif gate.kind is GateKind.CONST:
                values[gate_id] = bool(gate.payload)
            elif gate.kind is GateKind.NOT:
                values[gate_id] = not values[gate.inputs[0]]
            elif gate.kind is GateKind.AND:
                values[gate_id] = all(values[i] for i in gate.inputs)
            elif gate.kind is GateKind.OR:
                values[gate_id] = any(values[i] for i in gate.inputs)
        result = values[self.output]
        assert result is not None
        return result

    def _topological_order(self) -> list[int]:
        # Gates are created before they are used, so ids are already topological.
        return list(range(len(self._gates)))

    def reachable_gates(self) -> list[int]:
        """Gate ids reachable from the output (the 'useful' part of the circuit)."""
        if self.output is None:
            raise LineageError("circuit has no output gate")
        seen: set[int] = set()
        stack = [self.output]
        while stack:
            gate_id = stack.pop()
            if gate_id in seen:
                continue
            seen.add(gate_id)
            stack.extend(self._gates[gate_id].inputs)
        return sorted(seen)

    def pruned(self) -> "BooleanCircuit":
        """A copy with only the gates reachable from the output."""
        if self.output is None:
            raise LineageError("circuit has no output gate")
        keep = self.reachable_gates()
        remap: dict[int, int] = {}
        clone = BooleanCircuit()
        for gate_id in keep:
            gate = self._gates[gate_id]
            if gate.kind is GateKind.VAR:
                remap[gate_id] = clone.variable(gate.payload)
            elif gate.kind is GateKind.CONST:
                remap[gate_id] = clone.constant(gate.payload)
            elif gate.kind is GateKind.NOT:
                remap[gate_id] = clone.negation(remap[gate.inputs[0]])
            elif gate.kind is GateKind.AND:
                remap[gate_id] = clone.conjunction([remap[i] for i in gate.inputs])
            else:
                remap[gate_id] = clone.disjunction([remap[i] for i in gate.inputs])
        clone.set_output(remap[self.output])
        return clone

    def is_monotone(self) -> bool:
        """True if no NOT gate is reachable from the output."""
        return all(
            self._gates[g].kind is not GateKind.NOT for g in self.reachable_gates()
        )

    def restrict(self, partial: Mapping[Hashable, bool]) -> "BooleanCircuit":
        """The circuit with some variables replaced by constants."""
        clone = BooleanCircuit()
        remap: dict[int, int] = {}
        for gate_id, gate in self.gates():
            if gate.kind is GateKind.VAR:
                if gate.payload in partial:
                    remap[gate_id] = clone.constant(partial[gate.payload])
                else:
                    remap[gate_id] = clone.variable(gate.payload)
            elif gate.kind is GateKind.CONST:
                remap[gate_id] = clone.constant(gate.payload)
            elif gate.kind is GateKind.NOT:
                remap[gate_id] = clone.negation(remap[gate.inputs[0]])
            elif gate.kind is GateKind.AND:
                remap[gate_id] = clone.conjunction([remap[i] for i in gate.inputs])
            else:
                remap[gate_id] = clone.disjunction([remap[i] for i in gate.inputs])
        if self.output is not None:
            clone.set_output(remap[self.output])
        return clone

    # -- structure ------------------------------------------------------------

    def to_graph(self):
        """The undirected graph of the circuit (for treewidth measurements)."""
        from repro.structure.graph import Graph

        graph = Graph()
        for gate_id in range(len(self._gates)):
            graph.add_vertex(gate_id)
        for gate_id, gate in self.gates():
            for source in gate.inputs:
                graph.add_edge(source, gate_id)
        return graph

    def treewidth(self, exact: bool = False) -> int:
        """The treewidth of the circuit's underlying graph."""
        from repro.structure.tree_decomposition import treewidth as graph_treewidth

        return graph_treewidth(self.to_graph(), exact=exact)

    def pathwidth(self) -> int:
        from repro.structure.path_decomposition import pathwidth as graph_pathwidth

        return graph_pathwidth(self.to_graph())

    # -- exhaustive semantics (small circuits) ---------------------------------

    def satisfying_assignments(self) -> Iterator[dict[Hashable, bool]]:
        """All satisfying assignments over the circuit's variables (small circuits)."""
        names = list(self.variables())
        if len(names) > 22:
            raise LineageError("too many variables for exhaustive enumeration")
        for mask in range(1 << len(names)):
            valuation = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
            if self.evaluate(valuation):
                yield valuation

    def model_count(self) -> int:
        """Number of satisfying assignments (exhaustive; small circuits only)."""
        return sum(1 for _ in self.satisfying_assignments())

    def equivalent_to(self, other: "BooleanCircuit") -> bool:
        """Exhaustive equivalence check over the union of variable sets (small)."""
        names = sorted(set(self.variables()) | set(other.variables()), key=element_key)
        if len(names) > 22:
            raise LineageError("too many variables for exhaustive equivalence check")
        for mask in range(1 << len(names)):
            valuation = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
            if self.evaluate(valuation) != other.evaluate(valuation):
                return False
        return True


def circuit_from_function(
    variables: Sequence[Hashable], function: Callable[[Mapping[Hashable, bool]], bool]
) -> BooleanCircuit:
    """Build a (DNF) circuit from a Boolean function given as a Python callable.

    Exhaustive over the variables; only for small variable counts (testing).
    """
    circuit = BooleanCircuit()
    terms: list[int] = []
    names = list(variables)
    if len(names) > 20:
        raise LineageError("too many variables to tabulate")
    for mask in range(1 << len(names)):
        valuation = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        if function(valuation):
            literals = []
            for name in names:
                var = circuit.variable(name)
                literals.append(var if valuation[name] else circuit.negation(var))
            terms.append(circuit.conjunction(literals))
    circuit.set_output(circuit.disjunction(terms))
    return circuit
