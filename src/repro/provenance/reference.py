"""Seed provenance constructions and fact placements, kept as oracles.

The provenance front-end runs as fused kernels: the single-sweep
tree-encoding builder of :mod:`repro.provenance.tree_encoding`, the
dense-state automaton-provenance kernel of
:mod:`repro.provenance.automaton_provenance`, and the first-bag-index fact
placements of :mod:`repro.provenance.variable_orders`.  This module
preserves the *seed* constructions in their original form:

* ``tree_encoding_seed`` — binarize, then a recursive node-by-node build with
  a full scan over all bags per fact to find its topmost covering bag, and a
  final quadratic ``validate`` pass (recursion depth follows the
  decomposition depth, so deep path-shaped instances overflow the stack);
* ``reachable_states_seed`` / ``provenance_seed`` — child states sorted by
  ``repr`` at every node, the full child-state product enumerated twice
  (once for reachability, once for the gates), every per-child gate table
  retained until the end, and no co-reachability pruning;
* ``fact_order_from_path_decomposition_seed`` /
  ``fact_order_from_tree_decomposition_seed`` — every bag scanned for every
  fact to find its first covering bag;
* ``default_fact_order_reference`` — the default order's rule with both
  decompositions always built (the tree one from both heuristic sweeps),
  which :func:`repro.provenance.variable_orders.default_fact_order` must
  match while building only what the rule reads.

They exist for two purposes:

* **differential testing**: the property suite checks that the fused
  pipeline's d-DNNF / circuit / OBDD provenance is extensionally equal to
  these seed constructions (``tests/test_structure_kernels.py``);
* **benchmarking**: ``benchmarks/bench_structure.py`` measures the fused
  front-end and the path-order pipeline against these seed paths and gates
  CI on their speedups.

Do not use these from production code paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.booleans.circuit import BooleanCircuit
from repro.booleans.dnnf import DNNF
from repro.data.gaifman import gaifman_graph
from repro.data.instance import Fact, Instance
from repro.errors import CompilationError, DecompositionError
from repro.provenance.automata import State, TreeAutomaton
from repro.provenance.tree_encoding import EncodingNode, TreeEncoding
from repro.provenance.variable_orders import (
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.structure.nice import binarize
from repro.structure.path_decomposition import PathDecomposition, path_decomposition
from repro.structure.reference import (
    best_heuristic_ordering_seed,
    best_heuristic_sweep_reference,
    decomposition_from_ordering_seed,
)
from repro.structure.tree_decomposition import TreeDecomposition, decomposition_from_sweep

__all__ = [
    "default_fact_order_reference",
    "fact_order_from_path_decomposition_seed",
    "fact_order_from_tree_decomposition_seed",
    "provenance_seed",
    "reachable_states_seed",
    "tree_encoding_seed",
]


def tree_encoding_seed(
    instance: Instance, decomposition: TreeDecomposition | None = None
) -> TreeEncoding:
    """The seed tree-encoding builder (recursive, with per-fact bag scans)."""
    if decomposition is None:
        graph = gaifman_graph(instance)
        if len(graph) == 0:
            decomposition = TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)
        else:
            decomposition = decomposition_from_ordering_seed(
                graph, best_heuristic_ordering_seed(graph)
            )
    decomposition = binarize(decomposition)

    order = decomposition.topological_order()
    position = {node: index for index, node in enumerate(order)}
    facts_at: dict[int, list[Fact]] = {node: [] for node in decomposition.nodes()}
    for f in instance:
        elements = set(f.elements())
        covering = [node for node in order if elements <= decomposition.bags[node]]
        if not covering:
            raise DecompositionError(f"no bag covers fact {f}")
        topmost = min(covering, key=lambda node: position[node])
        facts_at[topmost].append(f)

    nodes: dict[int, EncodingNode] = {}
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    def build(bag_node: int) -> int:
        bag = decomposition.bags[bag_node]
        child_ids = tuple(build(child) for child in decomposition.children.get(bag_node, []))
        facts = sorted(facts_at[bag_node], key=_fact_key)
        if not facts:
            identifier = fresh()
            nodes[identifier] = EncodingNode(identifier, bag, None, child_ids)
            return identifier
        current_children = child_ids
        identifier = -1
        for f in facts:
            identifier = fresh()
            nodes[identifier] = EncodingNode(identifier, bag, f, current_children)
            current_children = (identifier,)
        return identifier

    root = build(decomposition.root)
    encoding = TreeEncoding(instance, nodes, root)
    encoding.validate()
    return encoding


def reachable_states_seed(
    automaton: TreeAutomaton, encoding: TreeEncoding
) -> dict[int, set[State]]:
    """The seed reachability pass: repr-sorted full products at every node."""
    reachable: dict[int, set[State]] = {}
    for identifier in encoding.post_order():
        node = encoding.nodes[identifier]
        child_state_sets = [sorted(reachable[child], key=repr) for child in node.children]
        states: set[State] = set()
        for combination in _product(child_state_sets):
            presence_options = (False, True) if node.fact is not None else (False,)
            for fact_present in presence_options:
                states.add(automaton.transition(node, fact_present, combination))
        reachable[identifier] = states
    return reachable


def provenance_seed(automaton: TreeAutomaton, encoding: TreeEncoding):
    """The seed provenance construction of Theorems 6.3/6.11.

    Returns a :class:`repro.provenance.automaton_provenance.ProvenanceResult`
    built the seed way: a second full product enumeration over repr-sorted
    child states, gates emitted for every reachable state (accepting-
    co-reachable or not), and all per-child gate tables held until the end.
    """
    from repro.provenance.automaton_provenance import ProvenanceResult

    reachable = reachable_states_seed(automaton, encoding)

    dnnf = DNNF()
    circuit = BooleanCircuit()

    dnnf_gate: dict[int, dict[State, int]] = {}
    circuit_gate: dict[int, dict[State, int]] = {}

    for identifier in encoding.post_order():
        node = encoding.nodes[identifier]
        children = node.children
        child_states: list[list[State]] = [sorted(reachable[c], key=repr) for c in children]

        combos_for_state: dict[State, list[tuple[tuple[State, ...], bool]]] = {}
        for combination in _product(child_states):
            presence_options = (False, True) if node.fact is not None else (False,)
            for fact_present in presence_options:
                state = automaton.transition(node, fact_present, combination)
                combos_for_state.setdefault(state, []).append((combination, fact_present))

        dnnf_gate[identifier] = {}
        circuit_gate[identifier] = {}
        for state, combos in combos_for_state.items():
            dnnf_terms: list[int] = []
            circuit_terms: list[int] = []
            for combination, fact_present in combos:
                dnnf_parts: list[int] = []
                circuit_parts: list[int] = []
                for child, child_state in zip(children, combination):
                    dnnf_parts.append(dnnf_gate[child][child_state])
                    circuit_parts.append(circuit_gate[child][child_state])
                if node.fact is not None:
                    dnnf_parts.append(dnnf.literal(node.fact, fact_present))
                    fact_gate = circuit.variable(node.fact)
                    circuit_parts.append(fact_gate if fact_present else circuit.negation(fact_gate))
                dnnf_terms.append(dnnf.conjunction(dnnf_parts))
                circuit_terms.append(circuit.conjunction(circuit_parts))
            dnnf_gate[identifier][state] = dnnf.disjunction(dnnf_terms)
            circuit_gate[identifier][state] = circuit.disjunction(circuit_terms)

    root_states = sorted(reachable[encoding.root], key=repr)
    accepting = [state for state in root_states if automaton.is_accepting(state)]
    dnnf.set_output(
        dnnf.disjunction([dnnf_gate[encoding.root][state] for state in accepting])
        if accepting
        else dnnf.constant(False)
    )
    circuit.set_output(
        circuit.disjunction([circuit_gate[encoding.root][state] for state in accepting])
        if accepting
        else circuit.constant(False)
    )

    counts = {identifier: len(states) for identifier, states in reachable.items()}
    total_gates = sum(len(gates) for gates in dnnf_gate.values())
    return ProvenanceResult(
        dnnf=dnnf,
        circuit=circuit,
        reachable_state_counts=counts,
        peak_live_gates=total_gates,
    )


def fact_order_from_tree_decomposition_seed(
    instance: Instance, decomposition: TreeDecomposition
) -> list[Fact]:
    """The seed tree placement: every bag scanned for every fact."""
    order = decomposition.topological_order()
    position = {node: index for index, node in enumerate(order)}
    placement: dict[Fact, int] = {}
    for f in instance:
        elements = set(f.elements())
        covering = [node for node in order if elements <= decomposition.bags[node]]
        if not covering:
            raise CompilationError(f"no bag covers the fact {f}")
        placement[f] = min(position[node] for node in covering)
    return sorted(instance.facts, key=lambda f: (placement[f], _fact_key(f)))


def fact_order_from_path_decomposition_seed(
    instance: Instance, decomposition: PathDecomposition
) -> list[Fact]:
    """The seed path placement: every bag scanned for every fact."""
    placement: dict[Fact, int] = {}
    for f in instance:
        elements = set(f.elements())
        covering = [index for index, bag in enumerate(decomposition.bags) if elements <= bag]
        if not covering:
            raise CompilationError(f"no bag covers the fact {f}")
        placement[f] = min(covering)
    return sorted(instance.facts, key=lambda f: (placement[f], _fact_key(f)))


def default_fact_order_reference(instance: Instance) -> list[Fact]:
    """The default order with both decompositions built: along the path when
    ``path.width <= max(2 * tw, tw + 1)``, else along the tree of width ``tw``."""
    graph = gaifman_graph(instance)
    path = path_decomposition(graph)
    tree = decomposition_from_sweep(best_heuristic_sweep_reference(graph))
    if path.width <= max(tree.width * 2, tree.width + 1):
        return fact_order_from_path_decomposition(instance, path)
    return fact_order_from_tree_decomposition(instance, tree)


def _product(sequences: Sequence[Sequence[State]]):
    if not sequences:
        yield ()
        return
    head, *tail = sequences
    for item in head:
        for rest in _product(tail):
            yield (item, *rest)


def _fact_key(f: Fact) -> tuple:
    return (f.relation, tuple(repr(a) for a in f.arguments))
